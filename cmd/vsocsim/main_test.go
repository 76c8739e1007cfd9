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
		fleet  bool
		mon    bool
		monOut string
		ok     bool
	}{
		{"single", dur, 0, false, false, "", true},
		{"farm", dur, 2, false, false, "", true},
		{"farm fleet", dur, 2, true, false, "", true},
		{"fleet without farm", dur, 0, true, false, "", false},
		{"mon", dur, 0, false, true, "", true},
		{"mon with report", dur, 0, false, true, "mon.json", true},
		{"farm mon with report", dur, 2, true, true, "mon.json", true},
		{"report without mon", dur, 0, false, false, "mon.json", false},
		{"farm report without mon", dur, 2, true, false, "mon.json", false},
		{"zero duration", 0, 0, false, false, "", false},
		{"negative duration", -time.Second, 0, false, false, "", false},
		{"negative farm duration", -time.Second, 2, false, false, "", false},
		{"negative shards", dur, -2, false, false, "", false},
	}
	for _, c := range cases {
		err := checkFlags(c.dur, c.shards, c.fleet, c.mon, c.monOut)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
