// Command vsocbench regenerates the paper's evaluation tables and figures
// (§5): the SVM microbenchmarks of Table 2, the FPS and motion-to-photon
// comparisons of Figs. 10-15, the ablation breakdowns, the prediction and
// overhead reports of §5.2, the write-invalidate CDF of Fig. 16, and the
// notification-batching sweep of DESIGN.md §9.
//
// Usage:
//
//	vsocbench [-exp <name>[,<name>...]] [-duration 30s] [-apps 10]
//	          [-popular 25] [-seed 1] [-workers 0] [-trace out.json]
//	          [-metrics] [-profile out.folded] [-json bench.json] [-fetch]
//	          [-shards N] [-monout mon.json]
//
// Run with -h for the experiment list; names, aliases, ordering, and the
// per-experiment -trace behavior all come from the shared experiments
// registry (internal/experiments/registry.go), which also says how each
// experiment runs; cmd/vsoctrace's usage is generated from it too.
//
// -workers bounds how many app sessions simulate concurrently (0 = one per
// CPU, 1 = serial). Results are identical at every setting; only wall-clock
// time changes.
//
// -trace writes virtual-time Chrome/Perfetto trace-event JSON (open it at
// ui.perfetto.dev) for the experiments that support it. -metrics appends a
// plain-text dump of the runs' counters, gauges, and histograms to their
// reports. Both observe only: with them off, output is byte-identical to a
// build without the observability layer.
//
// `-exp all` runs every registered experiment marked InAll, so its output
// stays comparable across builds; -h lists the ones it skips. -trace,
// -profile and -monout exit 2 when no selected experiment would honor
// them, as does a non-positive -duration or -apps, or a negative -popular,
// -workers or -shards.
//
// The shardscale farm always runs the fleet/scheduler observability layer
// (DESIGN.md §13) — per-tenant QoS/SLO tracking, the deterministic fleet
// report (byte-identical at every shard count), and the wall-clock
// barrier-stall attribution table — and the streaming telemetry engine
// (DESIGN.md §15): windowed virtual-time rollups, online SLO/anomaly
// detectors, and the incident flight recorder. Both are observe-only.
// With -trace the farm also writes one fleet-counter trace per shard
// count. -monout writes the machine-readable monitor report of phasedload
// or the shardscale farm (one per shard count) for cmd/vsocmon to render.
//
// -profile writes the critical-path profiler's folded-stack flamegraph
// export for the experiments that support it (micro); feed it to any
// flamegraph renderer. -json writes the machine-readable bench report —
// a stable, sorted JSON trajectory of named metrics — for cmd/vsocperf
// to diff against a baseline run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run, or a comma-separated list ("+experiments.ExperimentNames()+")")
	duration := flag.Duration("duration", 30*time.Second, "simulated duration per app")
	apps := flag.Int("apps", 10, "apps per emerging category")
	popular := flag.Int("popular", 25, "popular apps to run")
	seed := flag.Int64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "concurrent app sessions (0 = one per CPU, 1 = serial)")
	tracePath := flag.String("trace", "", "write Chrome/Perfetto trace JSON where the experiment supports it (see -h)")
	metrics := flag.Bool("metrics", false, "append a metrics dump to supporting experiment reports")
	profilePath := flag.String("profile", "", "write the folded-stack flamegraph export where the experiment supports it (see -h)")
	jsonPath := flag.String("json", "", "write the machine-readable bench report (for cmd/vsocperf) to this path")
	fetch := flag.Bool("fetch", false, "enable chunked, DMA-promoted demand fetches (DESIGN.md §11) for supporting experiments (micro, fig16)")
	shards := flag.Int("shards", 0, "shard count for the shardscale farm (DESIGN.md §12): 0 sweeps 1,2,4; N>1 runs 1 and N (at most the farm's 4 guests)")
	monOut := flag.String("monout", "", "write the machine-readable monitor report (for cmd/vsocmon) where the experiment supports it (phasedload, shardscale); the shardscale farm derives one path per shard count")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		var skipped []string
		for _, e := range experiments.Registry() {
			if !e.InAll {
				skipped = append(skipped, e.Name)
			}
		}
		fmt.Fprintf(out, "\nExperiments ('all' runs each of these except %s):\n%s",
			strings.Join(skipped, ", "), experiments.UsageText())
	}
	flag.Parse()

	cfg := experiments.Config{
		Duration:        *duration,
		AppsPerCategory: *apps,
		PopularApps:     *popular,
		Seed:            *seed,
		Workers:         *workers,
		TracePath:       *tracePath,
		Metrics:         *metrics,
		ProfilePath:     *profilePath,
		Fetch:           *fetch,
		Shards:          *shards,
		MonPath:         *monOut,
	}
	entries, labels, err := checkArgs(*exp, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	wallStart := time.Now()
	bench := map[string][]experiments.BenchMetric{}
	for i, e := range entries {
		start := time.Now()
		report, ms, err := e.Run(cfg)
		fmt.Print(report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vsocbench: %v\n", err)
			os.Exit(1)
		}
		if len(ms) > 0 {
			bench[e.Name] = ms
		}
		fmt.Printf("[%s in %.1fs]\n\n", labels[i], time.Since(start).Seconds())
	}
	if *jsonPath != "" {
		if err := experiments.NewBenchReport(bench).WriteJSONFile(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "vsocbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[bench report written to %s]\n", *jsonPath)
	}
	fmt.Printf("[total %.1fs, %d workers]\n", time.Since(wallStart).Seconds(), cfg.EffectiveWorkers())
}

// checkArgs resolves -exp and rejects a command line that would run nothing
// useful: an unknown experiment, -trace, -profile or -monout that no
// selected experiment honors, or a configuration Validate rejects (e.g.
// -apps 0 or -duration -1s, which would print an all-n/a table).
func checkArgs(exp string, cfg experiments.Config) ([]experiments.Entry, []string, error) {
	entries, labels, err := selectExperiments(exp)
	if err == nil {
		err = checkIgnored(entries, cfg.TracePath, cfg.ProfilePath, cfg.MonPath)
	}
	if err == nil {
		err = cfg.Validate()
	}
	return entries, labels, err
}

// selectExperiments resolves -exp: "all" selects every InAll entry in
// registry order; otherwise a comma-separated list runs in the order given,
// each labeled as typed so alias runs log as requested.
func selectExperiments(exp string) (entries []experiments.Entry, labels []string, err error) {
	if exp == "all" {
		for _, e := range experiments.Registry() {
			if e.InAll {
				entries = append(entries, e)
				labels = append(labels, e.Name)
			}
		}
		return entries, labels, nil
	}
	for _, name := range strings.Split(exp, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		e, known := experiments.LookupExperiment(name)
		if !known {
			return nil, nil, fmt.Errorf("unknown experiment %q", name)
		}
		entries = append(entries, e)
		labels = append(labels, name)
	}
	if len(entries) == 0 {
		return nil, nil, errors.New("empty -exp list")
	}
	return entries, labels, nil
}

// checkIgnored rejects -trace, -profile and -monout when no selected
// experiment would honor them, rather than silently writing nothing.
func checkIgnored(entries []experiments.Entry, tracePath, profilePath, monPath string) error {
	var traced, profiled, monitored bool
	for _, e := range entries {
		traced = traced || e.Trace != ""
		profiled = profiled || e.Profile != ""
		monitored = monitored || e.WritesMonitorReport()
	}
	if tracePath != "" && !traced {
		return errors.New("-trace: no selected experiment writes a trace")
	}
	if profilePath != "" && !profiled {
		return errors.New("-profile: no selected experiment writes a profile")
	}
	if monPath != "" && !monitored {
		return errors.New("-monout: no selected experiment writes a monitor report")
	}
	return nil
}
