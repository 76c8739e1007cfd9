package experiments

import (
	"fmt"
	"strings"

	"repro/internal/emulator"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/svm"
	"repro/internal/workload"
)

// MicroResult is the Fig. 16 run rerun with the critical-path profiler
// attached: the same access-latency CDF (the profiler is a pure observer,
// so the numbers are identical to RunFig16's) plus the walked attribution
// of where that latency comes from — the §5.4 demand-fetch breakdown.
type MicroResult struct {
	Fig16  *Fig16Result
	Report *prof.Report
	// Fetch-path counters summed across sessions (the fetchpipe sweep
	// reports them; zero when chunking is off).
	DemandFetches  int
	ChunkedFetches int
	FetchJoins     int
}

// RunMicro reruns the Fig. 16 workload (write-invalidate video on the
// high-end machine) with a per-session critical-path profiler. Sessions
// use the same seeds as RunFig16, so its stats are byte-identical to a
// profiler-off run; per-session reports merge in fixed run order, so the
// result is independent of worker count.
func RunMicro(cfg Config) *MicroResult {
	return runVideoProbe(cfg, fig16Preset(cfg), true)
}

// videoProbe lists the Fig. 16 probe runs: preset's UHD and 360 video apps
// on the high-end machine, seeded under seedIdx.
func videoProbe(cfg Config, preset emulator.Preset, seedIdx int) []appRun {
	return appsOf(cfg, preset, HighEnd, seedIdx, cfg.AppsPerCategory,
		emulator.CatUHDVideo, emulator.Cat360Video)
}

// runVideoProbe runs the Fig. 16 probe on preset, with the critical-path
// profiler attached when profile is set (Report stays empty otherwise).
// The batching guardrail, the fetchpipe sweep, and RunFig16/RunMicro all
// share it; the profiler never perturbs the simulation, so Fig16 is the
// same with it on or off.
func runVideoProbe(cfg Config, preset emulator.Preset, profile bool) *MicroResult {
	type out struct {
		st  *svm.Stats
		rep *prof.Report
	}
	done := sweep(cfg, videoProbe(cfg, preset, 500), profile, func(s *workload.Session, _ *workload.Result) out {
		return out{st: s.SVMStats(), rep: s.Env.Profiler().Report()}
	})
	var all metrics.Distribution
	merged := prof.New().Report()
	res := &MicroResult{}
	for _, d := range done {
		all.Merge(&d.out.st.AccessLatency)
		res.DemandFetches += d.out.st.DemandFetches
		res.ChunkedFetches += d.out.st.ChunkedFetches
		res.FetchJoins += d.out.st.FetchJoins
		d.out.rep.Retag(fmt.Sprintf("%s/%d", emulator.CategoryNames[d.cat], d.app))
		merged.Merge(d.out.rep)
	}
	res.Fig16 = &Fig16Result{
		CDF:    all.CDF(40),
		MeanMS: all.Mean(),
		P99MS:  all.Percentile(99),
		MaxMS:  all.Max(),
	}
	res.Report = merged
	return res
}

// FormatMicro renders the micro run: the Fig. 16 summary line plus the
// full attribution block (component table, demand-fetch class table, and
// top-K slowest frames) that accompanies the metrics dump.
func FormatMicro(r *MicroResult) string {
	var b strings.Builder
	b.WriteString("Critical-path micro run (Fig. 16 workload, profiler on):\n")
	fmt.Fprintf(&b, "  access latency: mean %.2f ms, p99 %.2f ms, max %.2f ms\n",
		r.Fig16.MeanMS, r.Fig16.P99MS, r.Fig16.MaxMS)
	cov, dom := r.Report.ClassCoverage("demand-fetch")
	fmt.Fprintf(&b, "  demand-fetch attribution: %.1f%% of latency named, dominant component %s\n",
		100*cov, dom)
	b.WriteString(r.Report.FormatAttribution())
	return b.String()
}

// MicroBenchMetrics projects the micro run onto the bench trajectory.
func MicroBenchMetrics(r *MicroResult) []BenchMetric {
	cov, _ := r.Report.ClassCoverage("demand-fetch")
	ms := make([]BenchMetric, 0, 8)
	ms = append(ms,
		BenchMetric{Name: "micro.access_latency_mean_ms", Value: r.Fig16.MeanMS, Unit: "ms", Better: "lower"},
		BenchMetric{Name: "micro.access_latency_p99_ms", Value: r.Fig16.P99MS, Unit: "ms", Better: "lower"},
		BenchMetric{Name: "micro.demand_fetch_coverage", Value: cov, Unit: "frac", Better: "higher"},
		BenchMetric{Name: "micro.frames", Value: float64(r.Report.Frames), Unit: "count", Better: "higher"},
	)
	if r.Report.Frames > 0 {
		meanMS := float64(r.Report.Total.Milliseconds()) / float64(r.Report.Frames)
		ms = append(ms, BenchMetric{Name: "micro.frame_critical_path_mean_ms", Value: meanMS, Unit: "ms", Better: "lower"})
	}
	if cs := r.Report.Classes["demand-fetch"]; cs != nil && cs.Count > 0 {
		meanMS := float64(cs.Total.Microseconds()) / 1000 / float64(cs.Count)
		ms = append(ms, BenchMetric{Name: "micro.demand_fetch_mean_ms", Value: meanMS, Unit: "ms", Better: "lower"})
	}
	return ms
}
