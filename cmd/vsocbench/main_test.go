package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
)

func TestSelectExperiments(t *testing.T) {
	var all []string
	for _, e := range experiments.Registry() {
		if e.InAll {
			all = append(all, e.Name)
		}
	}
	cases := []struct {
		name   string
		exp    string
		names  []string // canonical names selected, in run order
		labels []string // labels as logged; nil when err
		ok     bool
	}{
		{"all", "all", all, all, true},
		{"one", "table2", []string{"table2"}, []string{"table2"}, true},
		{"list keeps order", "micro,shardscale", []string{"micro", "shardscale"}, []string{"micro", "shardscale"}, true},
		{"alias logs as typed", "fig13, fig11", []string{"fig10", "fig11"}, []string{"fig13", "fig11"}, true},
		{"blank items skipped", "fig16,,", []string{"fig16"}, []string{"fig16"}, true},
		{"unknown", "table2,nope", nil, nil, false},
		{"removed tune", "tune", nil, nil, false},
		{"empty list", "", nil, nil, false},
		{"only commas", " , ", nil, nil, false},
	}
	for _, c := range cases {
		entries, labels, err := selectExperiments(c.exp)
		if (err == nil) != c.ok {
			t.Errorf("%s: selectExperiments(%q) err = %v, want ok=%v", c.name, c.exp, err, c.ok)
			continue
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name)
		}
		if !reflect.DeepEqual(names, c.names) || !reflect.DeepEqual(labels, c.labels) {
			t.Errorf("%s: selectExperiments(%q) = %v labeled %v, want %v labeled %v",
				c.name, c.exp, names, labels, c.names, c.labels)
		}
	}
}

func TestCheckIgnored(t *testing.T) {
	cases := []struct {
		name           string
		exp            string
		trace, profile string
		ok             bool
	}{
		{"no flags", "table2", "", "", true},
		{"profile on micro", "micro,shardscale", "", "out.folded", true},
		{"profile on all", "all", "", "out.folded", false},
		{"profile without micro", "fig16", "", "out.folded", false},
		{"trace on all", "all", "out.json", "", true},
		{"trace on overhead", "overhead", "out.json", "", true},
		{"trace without tracer", "table2,fig16", "out.json", "", false},
	}
	for _, c := range cases {
		entries, _, err := selectExperiments(c.exp)
		if err != nil {
			t.Fatalf("%s: selectExperiments(%q): %v", c.name, c.exp, err)
		}
		err = checkIgnored(entries, c.trace, c.profile, "")
		if (err == nil) != c.ok {
			t.Errorf("%s: checkIgnored = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestCheckArgs(t *testing.T) {
	// defaults mirrors the flag defaults main builds its Config from.
	defaults := experiments.Config{Duration: 30 * time.Second, AppsPerCategory: 10, PopularApps: 25, Seed: 1}
	with := func(f func(*experiments.Config)) experiments.Config {
		c := defaults
		f(&c)
		return c
	}
	cases := []struct {
		name string
		exp  string
		cfg  experiments.Config
		ok   bool
	}{
		{"defaults", "all", defaults, true},
		{"serial, no popular apps", "fig10", with(func(c *experiments.Config) { c.Workers, c.PopularApps = 1, 0 }), true},
		{"-apps 0", "fig10", with(func(c *experiments.Config) { c.AppsPerCategory = 0 }), false},
		{"-duration -1s", "fig10", with(func(c *experiments.Config) { c.Duration = -time.Second }), false},
		{"-duration 0", "table2", with(func(c *experiments.Config) { c.Duration = 0 }), false},
		{"-popular -1", "fig14", with(func(c *experiments.Config) { c.PopularApps = -1 }), false},
		{"-shards -2", "shardscale", with(func(c *experiments.Config) { c.Shards = -2 }), false},
		{"-workers -3", "all", with(func(c *experiments.Config) { c.Workers = -3 }), false},
		{"unknown experiment", "nope", defaults, false},
		{"ignored -profile", "fig16", with(func(c *experiments.Config) { c.ProfilePath = "out.folded" }), false},
		{"-monout on phasedload", "phasedload", with(func(c *experiments.Config) { c.MonPath = "mon.json" }), true},
		{"-monout on shardscale", "shardscale", with(func(c *experiments.Config) { c.MonPath = "mon.json" }), true},
		{"-monout with one monitored", "fig10,phasedload", with(func(c *experiments.Config) { c.MonPath = "mon.json" }), true},
		{"ignored -monout", "fig10", with(func(c *experiments.Config) { c.MonPath = "mon.json" }), false},
		{"ignored -monout on all", "all", with(func(c *experiments.Config) { c.MonPath = "mon.json" }), false},
	}
	for _, c := range cases {
		if _, _, err := checkArgs(c.exp, c.cfg); (err == nil) != c.ok {
			t.Errorf("%s: checkArgs = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
