package experiments

import (
	"time"

	"repro/internal/emulator"
	"repro/internal/hostsim"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/svm"
	"repro/internal/workload"
)

// SVMPerf is one emulator's Table 2 row set on one machine.
type SVMPerf struct {
	Emulator string
	Machine  string
	// AccessLatencyMS is the mean HAL begin_access latency (Table 2 row 1).
	AccessLatencyMS float64
	// CoherenceCostMS is the mean coherence maintenance duration (row 2).
	CoherenceCostMS float64
	// ThroughputGBs is useful data accessed per second (row 3).
	ThroughputGBs float64
	// DirectShare is the fraction of coherence done host-direct (§5.2
	// reports 98% for vSoC).
	DirectShare float64
}

// Table2Result is the SVM microbenchmark of §5.2 for the three
// source-instrumentable emulators on both machines.
type Table2Result struct {
	Rows []SVMPerf
}

// Of returns the row for (emulator, machine).
func (t *Table2Result) Of(emu, machine string) *SVMPerf {
	for i := range t.Rows {
		if t.Rows[i].Emulator == emu && t.Rows[i].Machine == machine {
			return &t.Rows[i]
		}
	}
	return nil
}

// mergeStats folds one session's SVM statistics into an aggregate, in the
// field order the Table 2 mix has always used.
func mergeStats(merged, st *svm.Stats) {
	merged.AccessLatency.Merge(&st.AccessLatency)
	merged.HALAccessLatency.Merge(&st.HALAccessLatency)
	merged.CoherenceCost.Merge(&st.CoherenceCost)
	merged.SlackIntervals.Merge(&st.SlackIntervals)
	merged.RegionSizes.Merge(&st.RegionSizes)
	merged.BytesAccessed += st.BytesAccessed
	merged.BytesCoherence += st.BytesCoherence
	merged.BytesWasted += st.BytesWasted
	merged.DirectCoherence += st.DirectCoherence
	merged.GuestCoherence += st.GuestCoherence
	merged.PredTotal += st.PredTotal
	merged.PredCorrect += st.PredCorrect
	merged.SlackError.Merge(&st.SlackError)
	merged.PrefetchTimeError.Merge(&st.PrefetchTimeError)
}

// RunTable2 reproduces Table 2: SVM access latency, coherence cost, and
// throughput for vSoC, GAE, and QEMU-KVM on both machines. Each
// (machine, emulator, category) session is an independent simulation; they
// fan out across Config.Workers and merge in loop order.
func RunTable2(cfg Config) *Table2Result {
	machines := []MachineSpec{HighEnd, MidEnd}
	targets := []emulator.Preset{emulator.VSoC(), emulator.GAE(), emulator.QEMUKVM()}
	type job struct{ mi, ti, cat int }
	var jobs []job
	for mi := range machines {
		for ti := range targets {
			for cat := 0; cat < emulator.NumCategories; cat++ {
				if targets[ti].EmergingCompat[cat] == 0 {
					continue
				}
				jobs = append(jobs, job{mi, ti, cat})
			}
		}
	}
	stats := parmap(cfg.workers(), len(jobs), func(i int) *svm.Stats {
		j := jobs[i]
		seed := cfg.Seed + int64(j.mi*1000+j.ti*100) + int64(j.cat)
		sess := workload.NewSession(targets[j.ti], machines[j.mi].New, seed)
		defer sess.Close()
		spec := workload.DefaultSpec(j.cat, 0, cfg.Duration)
		if _, err := workload.RunEmerging(sess.Emulator, spec); err != nil {
			return nil
		}
		return sess.SVMStats()
	})
	out := &Table2Result{}
	for mi, machine := range machines {
		for ti, preset := range targets {
			merged := &svm.Stats{}
			var total time.Duration
			for i, j := range jobs {
				if j.mi != mi || j.ti != ti || stats[i] == nil {
					continue
				}
				mergeStats(merged, stats[i])
				total += cfg.Duration
			}
			row := SVMPerf{
				Emulator:        preset.Name,
				Machine:         machine.Name,
				AccessLatencyMS: merged.HALAccessLatency.Mean(),
				CoherenceCostMS: merged.CoherenceCost.Mean(),
				DirectShare:     merged.DirectShare(),
			}
			if total > 0 {
				row.ThroughputGBs = merged.Throughput(total) / 1e9
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// PredictionResult is the §5.2 prediction-quality report.
type PredictionResult struct {
	// DeviceAccuracy per category (paper: 99-100%).
	DeviceAccuracy map[string]float64
	// SlackStdErrMS and PrefetchStdErrMS are the standard errors of the
	// timing predictions (paper: 0.9 ms and 0.3 ms).
	SlackStdErrMS    float64
	PrefetchStdErrMS float64
	// Suspensions counts engine self-suspensions across the mix.
	Suspensions int
}

// RunPrediction reproduces the §5.2 prediction-accuracy measurements on the
// high-end machine.
func RunPrediction(cfg Config) *PredictionResult {
	preset := emulator.VSoC()
	type job struct{ cat, app int }
	type result struct {
		st   *svm.Stats
		susp int
	}
	var jobs []job
	for cat := 0; cat < emulator.NumCategories; cat++ {
		apps := preset.EmergingCompat[cat]
		if apps > cfg.AppsPerCategory {
			apps = cfg.AppsPerCategory
		}
		for app := 0; app < apps; app++ {
			jobs = append(jobs, job{cat, app})
		}
	}
	results := parmap(cfg.workers(), len(jobs), func(i int) result {
		j := jobs[i]
		sess := workload.NewSession(preset, HighEnd.New, appSeed(cfg.Seed, 400, j.cat, j.app))
		defer sess.Close()
		spec := workload.DefaultSpec(j.cat, j.app, cfg.Duration)
		if _, err := workload.RunEmerging(sess.Emulator, spec); err != nil {
			return result{}
		}
		return result{st: sess.SVMStats(), susp: sess.Emulator.Manager.Engine().Suspensions()}
	})
	out := &PredictionResult{DeviceAccuracy: make(map[string]float64)}
	var slackErr, pfErr metrics.Distribution
	for cat := 0; cat < emulator.NumCategories; cat++ {
		var correct, total int
		for i, j := range jobs {
			if j.cat != cat || results[i].st == nil {
				continue
			}
			r := results[i]
			correct += r.st.PredCorrect
			total += r.st.PredTotal
			out.Suspensions += r.susp
			slackErr.Merge(&r.st.SlackError)
			pfErr.Merge(&r.st.PrefetchTimeError)
		}
		if total > 0 {
			out.DeviceAccuracy[emulator.CategoryNames[cat]] = float64(correct) / float64(total)
		}
	}
	out.SlackStdErrMS = slackErr.StdErr()
	out.PrefetchStdErrMS = pfErr.StdErr()
	return out
}

// OverheadResult is the §5.2 framework-overhead report.
type OverheadResult struct {
	// MemoryBytes is the SVM framework's resident footprint (paper bound:
	// 3.1 MiB).
	MemoryBytes int64
	// CPUFraction estimates the manager's bookkeeping CPU share (paper:
	// <1%), charging a nominal 2 microseconds of CPU per SVM operation.
	CPUFraction float64
	// FenceTablePeak is the peak occupancy of the 4 KiB fence table.
	FenceTablePeak int
	FenceCapacity  int

	// TraceFile and MetricsDump mirror the RobustnessCell fields: set only
	// when the run was configured with TracePath/Metrics.
	TraceFile   string
	MetricsDump string
}

// RunOverhead reproduces the §5.2 overhead accounting during a camera-app
// run (the busiest pipeline).
func RunOverhead(cfg Config) *OverheadResult {
	var tr *obs.Tracer
	if cfg.TracePath != "" {
		tr = obs.NewTracer()
	}
	var reg *obs.Registry
	if cfg.Metrics {
		reg = obs.NewRegistry()
	}
	sess := workload.NewObservedSession(emulator.VSoC(), HighEnd.New, cfg.Seed, tr, reg)
	defer sess.Close()
	out := &OverheadResult{}
	finishObs := func() {
		if tr != nil {
			out.TraceFile = writeTrace(cfg.TracePath, tr)
		}
		if reg != nil {
			out.MetricsDump = reg.FormatText()
		}
	}
	spec := workload.DefaultSpec(emulator.CatCamera, 0, cfg.Duration)
	if _, err := workload.RunEmerging(sess.Emulator, spec); err != nil {
		finishObs()
		return out
	}
	st := sess.SVMStats()
	const perOpCPU = 2 * time.Microsecond
	opCPU := time.Duration(st.Accesses) * perOpCPU
	out.MemoryBytes = sess.Emulator.Manager.MemoryFootprint()
	out.CPUFraction = float64(opCPU) / float64(cfg.Duration)
	out.FenceTablePeak = sess.Emulator.Fences.Peak()
	out.FenceCapacity = sess.Emulator.Fences.Capacity()
	finishObs()
	return out
}

// Fig16Result is the write-invalidate access-latency CDF of §5.4.
type Fig16Result struct {
	// CDF of begin_access blocking latency (ms) with prefetch disabled.
	CDF []metrics.CDFPoint
	MeanMS, P99MS,
	MaxMS float64
}

// RunFig16 reproduces Fig. 16: access latency on the high-end machine with
// the prefetch engine replaced by write-invalidate, on the video apps whose
// render threads the coherence blocks.
func RunFig16(cfg Config) *Fig16Result {
	preset := emulator.VSoCNoPrefetch()
	if cfg.Fetch {
		preset.Fetch = hostsim.EnabledFetch()
	}
	return runFig16Preset(cfg, preset)
}

// runFig16Preset is RunFig16's body with the preset injectable, so the
// batching sweep can rerun the demand-fetch-heavy workload with batching on
// as its latency guardrail.
func runFig16Preset(cfg Config, preset emulator.Preset) *Fig16Result {
	type job struct{ cat, app int }
	var jobs []job
	for _, cat := range []int{emulator.CatUHDVideo, emulator.Cat360Video} {
		apps := cfg.AppsPerCategory
		if apps > preset.EmergingCompat[cat] {
			apps = preset.EmergingCompat[cat]
		}
		for app := 0; app < apps; app++ {
			jobs = append(jobs, job{cat, app})
		}
	}
	stats := parmap(cfg.workers(), len(jobs), func(i int) *svm.Stats {
		j := jobs[i]
		sess := workload.NewSession(preset, HighEnd.New, appSeed(cfg.Seed, 500, j.cat, j.app))
		defer sess.Close()
		spec := workload.DefaultSpec(j.cat, j.app, cfg.Duration)
		if _, err := workload.RunEmerging(sess.Emulator, spec); err != nil {
			return nil
		}
		return sess.SVMStats()
	})
	var all metrics.Distribution
	for _, st := range stats {
		if st != nil {
			all.Merge(&st.AccessLatency)
		}
	}
	return &Fig16Result{
		CDF:    all.CDF(40),
		MeanMS: all.Mean(),
		P99MS:  all.Percentile(99),
		MaxMS:  all.Max(),
	}
}
