package experiments

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// detCfg is small enough to run the full study twice per seed in a test.
func detCfg(seed int64, workers int) Config {
	return Config{
		Duration:        5 * time.Second,
		AppsPerCategory: 2,
		PopularApps:     4,
		Seed:            seed,
		Workers:         workers,
	}
}

// TestParallelDeterminism is the fan-out contract: the formatted output of
// the study and Table 2 runners must be byte-identical between the serial
// path and a heavily oversubscribed parallel run, across seeds.
func TestParallelDeterminism(t *testing.T) {
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4 // oversubscribe so interleaving actually happens
	}
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			serialStudy := FormatStudy(RunStudy(detCfg(seed, 1)))
			parallelStudy := FormatStudy(RunStudy(detCfg(seed, workers)))
			if serialStudy != parallelStudy {
				t.Errorf("RunStudy diverges between 1 and %d workers:\nserial:\n%s\nparallel:\n%s",
					workers, serialStudy, parallelStudy)
			}
			serialT2 := FormatTable2(RunTable2(detCfg(seed, 1)))
			parallelT2 := FormatTable2(RunTable2(detCfg(seed, workers)))
			if serialT2 != parallelT2 {
				t.Errorf("RunTable2 diverges between 1 and %d workers:\nserial:\n%s\nparallel:\n%s",
					workers, serialT2, parallelT2)
			}
		})
	}
}

// TestParmap checks the index plumbing: every index runs exactly once and
// lands in its own slot, at any worker count.
func TestParmap(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		var calls atomic.Int64
		out := ParMap(workers, 50, func(i int) int {
			calls.Add(1)
			return i * i
		})
		if got := calls.Load(); got != 50 {
			t.Fatalf("workers=%d: fn ran %d times, want 50", workers, got)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestParmapEmpty(t *testing.T) {
	out := ParMap(8, 0, func(i int) int {
		t.Fatal("fn called for n=0")
		return 0
	})
	if len(out) != 0 {
		t.Fatalf("len(out) = %d, want 0", len(out))
	}
}

// TestProfilerDeterminism is the profiler's observer contract, both ways:
// equal seeds produce byte-identical folded-stack exports (at any worker
// count), and attaching the profiler leaves the simulation's results
// byte-identical to a profiler-off run.
func TestProfilerDeterminism(t *testing.T) {
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			serial := RunMicro(detCfg(seed, 1))
			parallel := RunMicro(detCfg(seed, workers))
			if a, b := serial.Report.FoldedString(), parallel.Report.FoldedString(); a != b {
				t.Errorf("folded export diverges between 1 and %d workers:\n%s\nvs\n%s", workers, a, b)
			}
			if a, b := FormatMicro(serial), FormatMicro(parallel); a != b {
				t.Errorf("micro report diverges between 1 and %d workers:\n%s\nvs\n%s", workers, a, b)
			}
			rerun := RunMicro(detCfg(seed, 1))
			if a, b := serial.Report.FoldedString(), rerun.Report.FoldedString(); a != b {
				t.Errorf("folded export diverges across equal-seed runs:\n%s\nvs\n%s", a, b)
			}

			// Profiler on vs off: the Fig. 16 stats must match exactly.
			off := RunFig16(detCfg(seed, 1))
			if off.MeanMS != serial.Fig16.MeanMS || off.P99MS != serial.Fig16.P99MS || off.MaxMS != serial.Fig16.MaxMS {
				t.Errorf("profiler perturbed simulation results: off={%.9f %.9f %.9f} on={%.9f %.9f %.9f}",
					off.MeanMS, off.P99MS, off.MaxMS,
					serial.Fig16.MeanMS, serial.Fig16.P99MS, serial.Fig16.MaxMS)
			}
			if a, b := FormatFig16(off), FormatFig16(serial.Fig16); a != b {
				t.Errorf("profiler perturbed the Fig. 16 CDF:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestMicroAttribution pins the headline claims of the micro experiment:
// at least 95% of demand-fetch latency is attributed to named components,
// and the dominant component is the PCIe sync-copy link (the §5.4 story —
// write-invalidate readers stall on synchronous host-to-device copies).
func TestMicroAttribution(t *testing.T) {
	r := RunMicro(detCfg(1, 0))
	cov, dom := r.Report.ClassCoverage("demand-fetch")
	if cov < 0.95 {
		t.Errorf("demand-fetch attribution coverage = %.3f, want >= 0.95", cov)
	}
	if dom != "link:pcie-h2d:sync-copy" {
		t.Errorf("dominant demand-fetch component = %q, want link:pcie-h2d:sync-copy", dom)
	}
	if r.Report.Frames == 0 {
		t.Fatal("micro run recorded no frames")
	}
	if len(r.Report.Top) == 0 {
		t.Fatal("micro run recorded no slowest-frame records")
	}
	for _, f := range r.Report.Top {
		if f.Latency() <= 0 {
			t.Errorf("top frame %s has non-positive latency %v", f.Label, f.Latency())
		}
	}
	ms := MicroBenchMetrics(r)
	if len(ms) < 5 {
		t.Fatalf("MicroBenchMetrics returned %d metrics, want >= 5", len(ms))
	}
}

// TestMicroAttributionNeverOvercharged pins the other bound of the coverage
// invariant: named component charges can never exceed the class's blocked
// wall time. Coverage above 1.0 would mean some interval was charged into
// two components at once — the ChargeWait batch-boundary double-charge this
// PR's hostsim property test guards at the unit level.
func TestMicroAttributionNeverOvercharged(t *testing.T) {
	for _, fetch := range []bool{false, true} {
		cfg := detCfg(1, 0)
		cfg.Fetch = fetch
		r := RunMicro(cfg)
		cov, _ := r.Report.ClassCoverage("demand-fetch")
		if cov > 1.0 {
			t.Errorf("fetch=%v: demand-fetch coverage = %.6f > 1.0 (double-charged interval)", fetch, cov)
		}
		if cov < 0.95 {
			t.Errorf("fetch=%v: demand-fetch coverage = %.6f, want >= 0.95", fetch, cov)
		}
	}
}
