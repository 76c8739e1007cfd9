package main

import "testing"

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name   string
		shards int
		fleet  bool
		mon    bool
		monOut string
		ok     bool
	}{
		{"single", 0, false, false, "", true},
		{"farm", 2, false, false, "", true},
		{"farm fleet", 2, true, false, "", true},
		{"fleet without farm", 0, true, false, "", false},
		{"mon", 0, false, true, "", true},
		{"mon with report", 0, false, true, "mon.json", true},
		{"farm mon with report", 2, true, true, "mon.json", true},
		{"report without mon", 0, false, false, "mon.json", false},
		{"farm report without mon", 2, true, false, "mon.json", false},
	}
	for _, c := range cases {
		err := checkFlags(c.shards, c.fleet, c.mon, c.monOut)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
