package main

import (
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	const dur = 2 * time.Second
	cases := []struct {
		name   string
		dur    time.Duration
		shards int
		mon    bool
		monOut string
		ok     bool
	}{
		{"single", dur, 0, false, "", true},
		{"farm", dur, 2, false, "", true},
		{"farm with report", dur, 2, false, "mon.json", true},
		{"mon", dur, 0, true, "", true},
		{"mon with report", dur, 0, true, "mon.json", true},
		{"mon in farm mode", dur, 2, true, "", false},
		{"report without mon", dur, 0, false, "mon.json", false},
		{"zero duration", 0, 0, false, "", false},
		{"negative duration", -time.Second, 0, false, "", false},
		{"negative farm duration", -time.Second, 2, false, "", false},
		{"negative shards", dur, -2, false, "", false},
	}
	for _, c := range cases {
		err := checkFlags(c.dur, c.shards, c.mon, c.monOut)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
