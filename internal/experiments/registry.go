package experiments

import (
	"errors"
	"fmt"
	"strings"
)

// Entry describes one experiment exposed by the command-line tools. The
// registry is the single source of truth for experiment names, ordering,
// aliases, usage text, and how each experiment runs: cmd/vsocbench loops it
// instead of keeping its own runner list, and cmd/vsoctrace generates its
// usage from it too.
type Entry struct {
	// Name is the canonical -exp value.
	Name string
	// Aliases are alternate -exp values running the same experiment
	// (fig13 prints with fig10, fig14 with fig11: same runs).
	Aliases []string
	// Summary is the one-line description shown in usage text.
	Summary string
	// Trace describes how -trace interacts with this experiment; empty
	// means the flag is ignored by it.
	Trace string
	// Profile describes how -profile interacts with this experiment;
	// empty means the flag is ignored by it.
	Profile string
	// InAll marks experiments included in `-exp all`. The batching sweep
	// is excluded so `-exp all` output stays byte-comparable with builds
	// that predate it.
	InAll bool
	// Run runs the experiment and returns its printed report plus any
	// metrics it contributes to the -json bench report (the trajectory
	// cmd/vsocperf diffs; nil outside it). A non-nil error is an output
	// file the run was asked to write and could not; the report is still
	// valid.
	Run func(Config) (report string, bench []BenchMetric, err error)
}

// WritesMonitorReport reports whether the experiment runs the streaming
// telemetry engine and so honors Config.MonPath.
func (e Entry) WritesMonitorReport() bool {
	return e.Name == "phasedload" || e.Name == "shardscale"
}

// formatted adapts a Run*/Format* pair, plus its bench projection when it
// has one (nil otherwise), to Entry.Run.
func formatted[R any](run func(Config) R, format func(R) string,
	bench func(R) []BenchMetric) func(Config) (string, []BenchMetric, error) {
	return func(cfg Config) (string, []BenchMetric, error) {
		r := run(cfg)
		var ms []BenchMetric
		if bench != nil {
			ms = bench(r)
		}
		return format(r), ms, nil
	}
}

// Registry returns the experiments in canonical execution order — the order
// `-exp all` runs them and usage text lists them.
func Registry() []Entry {
	return []Entry{
		{Name: "table1", InAll: true,
			Summary: "emerging-app taxonomy and compatibility (Table 1)",
			Run: func(Config) (string, []BenchMetric, error) {
				return FormatTable1(Table1()), nil, nil
			}},
		{Name: "table2", InAll: true,
			Summary: "SVM microbenchmarks: access latency, coherence cost, throughput (Table 2)",
			Run:     formatted(RunTable2, FormatTable2, nil)},
		{Name: "fig10", Aliases: []string{"fig13"}, InAll: true,
			Summary: "emerging-app FPS and motion-to-photon, high-end desktop (Figs. 10+13)",
			Run: func(cfg Config) (string, []BenchMetric, error) {
				return FormatEmerging(RunEmergingSweep(cfg, HighEnd), "10", "13"), nil, nil
			}},
		{Name: "fig11", Aliases: []string{"fig14"}, InAll: true,
			Summary: "emerging-app FPS and motion-to-photon, middle-end laptop (Figs. 11+14)",
			Run: func(cfg Config) (string, []BenchMetric, error) {
				return FormatEmerging(RunEmergingSweep(cfg, MidEnd), "11", "14"), nil, nil
			}},
		{Name: "fig12", InAll: true,
			Summary: "vSoC ablations on the emerging apps (Fig. 12)",
			Run:     formatted(RunAblation, FormatAblation, nil)},
		{Name: "fig15", InAll: true,
			Summary: "popular-app FPS comparison (Fig. 15)",
			Run:     formatted(RunPopular, FormatPopular, nil)},
		{Name: "popablation", InAll: true,
			Summary: "vSoC ablations on the popular apps (§5.5)",
			Run:     formatted(RunPopularAblation, FormatPopularAblation, nil)},
		{Name: "prediction", InAll: true,
			Summary: "prefetch prediction accuracy and timing error (§5.2)",
			Run:     formatted(RunPrediction, FormatPrediction, nil)},
		{Name: "overhead", InAll: true,
			Summary: "SVM framework memory/CPU overhead and fence-table peak (§5.2)",
			Trace:   "writes exactly the given path",
			Run:     formatted(RunOverhead, FormatOverhead, nil)},
		{Name: "fig16", InAll: true,
			Summary: "write-invalidate access-latency CDF (Fig. 16, §5.4)",
			Run:     formatted(RunFig16, FormatFig16, nil)},
		{Name: "micro",
			Summary: "Fig. 16 rerun with the critical-path profiler: per-component latency attribution, demand-fetch breakdown, top-K slowest frames (§5.4); excluded from -exp all",
			Profile: "writes the folded-stack flamegraph export to the given path",
			Run:     runMicroEntry},
		{Name: "services", InAll: true,
			Summary: "shared-memory usage by Android service (§2.3 attribution study)",
			Run:     formatted(RunServices, FormatServices, nil)},
		{Name: "protocols", InAll: true,
			Summary: "coherence-protocol head-to-head on a churning pipeline (§7)",
			Run:     formatted(RunProtocols, FormatProtocols, nil)},
		{Name: "thermal", InAll: true,
			Summary: "laptop thermal-throttling trajectory (§5.3)",
			Run:     formatted(RunThermal, FormatThermal, nil)},
		{Name: "resolution", InAll: true,
			Summary: "FPS across video resolutions (§5.3 functional check)",
			Run:     formatted(RunResolutionSweep, FormatResolution, nil)},
		{Name: "robustness", InAll: true,
			Summary: "fault-injection degradation and recovery curves",
			Trace:   "writes one file per (emulator, fault) cell next to the given path",
			Run: formatted(RunRobustness, func(r *RobustnessResult) string {
				return FormatRobustness(r) + FormatRobustnessObs(r)
			}, nil)},
		{Name: "batching",
			Summary: "notification-batching sweep: notifications/op and Table-2 deltas across batch windows (DESIGN.md §9); excluded from -exp all",
			Run:     formatted(RunBatching, FormatBatching, nil)},
		{Name: "fetchpipe",
			Summary: "chunked demand-fetch sweep: access latency and sync-copy share across chunk sizes (DESIGN.md §11); excluded from -exp all",
			Run:     formatted(RunFetchPipe, FormatFetchPipe, nil)},
		{Name: "shardscale",
			Summary: "multi-guest farm under the conservative parallel scheduler: determinism check and events/s scaling across shard counts (DESIGN.md §12), with the QoS/SLO fleet report and barrier-stall attribution (§13) and the monitor (§15); -monout writes one monitor report per shard count; excluded from -exp all",
			Trace:   "writes one fleet-counter trace per shard count next to the given path",
			Run:     formatted(RunShardScale, FormatShardScale, ShardScaleBenchMetrics)},
		{Name: "phasedload",
			Summary: "monitored phased-load scenario (steady/spike/fault/recovery) exercising the streaming telemetry engine's windowed rollups, online detectors, and incident flight recorder (DESIGN.md §15); -monout writes the monitor report for cmd/vsocmon; excluded from -exp all",
			Trace:   "writes one flight-recorder Perfetto snippet per incident next to the given path",
			Run:     formatted(RunPhasedLoad, FormatPhasedLoad, PhasedLoadBenchMetrics)},
	}
}

// runMicroEntry is the micro entry's Run: the profiled Fig. 16 report and
// its bench metrics, plus the folded-stack export when Config.ProfilePath
// is set.
func runMicroEntry(cfg Config) (string, []BenchMetric, error) {
	r := RunMicro(cfg)
	report := FormatMicro(r)
	if cfg.ProfilePath != "" {
		f := writeReport(cfg.ProfilePath, r.Report.WriteFolded)
		if msg, failed := strings.CutPrefix(f, "error: "); failed {
			return report, nil, errors.New(msg)
		}
		report += fmt.Sprintf("[folded-stack profile written to %s]\n", f)
	}
	return report, MicroBenchMetrics(r), nil
}

// LookupExperiment resolves a -exp value (canonical name or alias) to its
// registry entry.
func LookupExperiment(name string) (Entry, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
		for _, a := range e.Aliases {
			if a == name {
				return e, true
			}
		}
	}
	return Entry{}, false
}

// ExperimentNames returns "all" plus every canonical name and alias in
// registry order, for one-line usage summaries.
func ExperimentNames() string {
	parts := []string{"all"}
	for _, e := range Registry() {
		parts = append(parts, e.Name)
		parts = append(parts, e.Aliases...)
	}
	return strings.Join(parts, "|")
}

// UsageText returns the generated experiment list for long-form usage:
// one line per experiment with its summary and any -trace interaction.
func UsageText() string {
	var b strings.Builder
	for _, e := range Registry() {
		name := e.Name
		if len(e.Aliases) > 0 {
			name += " (" + strings.Join(e.Aliases, ", ") + ")"
		}
		b.WriteString("  ")
		b.WriteString(name)
		b.WriteString("\n        ")
		b.WriteString(e.Summary)
		if e.Trace != "" {
			b.WriteString("\n        -trace: ")
			b.WriteString(e.Trace)
		}
		if e.Profile != "" {
			b.WriteString("\n        -profile: ")
			b.WriteString(e.Profile)
		}
		b.WriteString("\n")
	}
	return b.String()
}
