// Package experiments regenerates every table and figure of the paper's
// measurement study (§2.3) and evaluation (§5): the workload taxonomy
// (Table 1), the SVM microbenchmarks (Table 2), the FPS and motion-to-photon
// comparisons across six emulators and two machines (Figs. 10-15), the
// ablation breakdowns (Fig. 12, §5.5), the write-invalidate access-latency
// CDF (Fig. 16), and the shared-memory characterization CDFs (Figs. 4-6).
//
// Each experiment is a pure function of a Config, deterministic for a given
// seed, returning printable result structures. cmd/vsocbench formats them;
// bench_test.go wraps them in testing.B benchmarks.
package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/emulator"
	"repro/internal/hostsim"
	"repro/internal/sim"
)

// Config scales an experiment run.
type Config struct {
	// Duration is the per-app simulated run length. The paper uses 5
	// minutes; 30 s is statistically equivalent for everything except the
	// laptop thermal effects, which need >= 90 s to manifest.
	Duration time.Duration
	// AppsPerCategory is how many of each category's 10 apps to simulate.
	AppsPerCategory int
	// PopularApps is how many of the top-25 popular apps to simulate.
	PopularApps int
	// Seed drives all randomness.
	Seed int64
	// Workers bounds how many app sessions the Run* drivers simulate
	// concurrently. 0 means one worker per CPU (GOMAXPROCS); 1 forces the
	// serial path.
	// Results are identical for every setting — sessions are independent
	// simulations merged in a fixed order — so Workers only trades
	// wall-clock time for cores.
	Workers int
	// TracePath enables virtual-time span tracing for the experiments that
	// support it. The robustness sweep writes one Chrome/Perfetto JSON file
	// per (emulator, fault) cell, derived from this path; the overhead run
	// writes exactly this path. Empty disables tracing: runs are then
	// byte-identical to a build without the observability layer.
	TracePath string
	// Metrics enables the metrics registry; supporting experiments append a
	// plain-text dump of counters, gauges, and histograms to their report.
	Metrics bool
	// ProfilePath, for experiments that support the critical-path profiler
	// (micro), is where the folded-stack flamegraph export is written.
	// Empty disables the export; the profiler itself runs whenever the
	// experiment asks for it and never perturbs simulation results.
	ProfilePath string
	// Fetch enables chunked, DMA-promoted demand fetches (DESIGN.md §11)
	// for the experiments that support it (micro, fig16). Off by default so
	// every experiment's output matches the pre-chunking emulator byte for
	// byte; the fetchpipe sweep varies the knobs itself.
	Fetch bool
	// Shards selects the conservative parallel scheduler's shard count for
	// the shardscale farm (DESIGN.md §12): 0 sweeps the {1,2,4,8} ladder,
	// 1 runs the serial path only, N > 1 runs {1, N}; counts above the
	// farm's four guests clamp to four. Simulation results are identical
	// at every setting — sharding only trades wall-clock time for cores.
	Shards int
	// MonPath, when set, is where the experiments that run the streaming
	// telemetry engine (internal/tsmon, DESIGN.md §15) — phasedload and
	// the shardscale farm — write the machine-readable monitor report
	// (cmd/vsocmon renders it). The shardscale farm derives one path per
	// shard count from it.
	MonPath string
}

// Validate rejects configurations no experiment can run meaningfully: a
// non-positive Duration or AppsPerCategory simulates nothing and would
// print an all-n/a table, and negative counts have no meaning. It reports
// every problem, not just the first.
func (c Config) Validate() error {
	var errs []error
	if c.Duration <= 0 {
		errs = append(errs, fmt.Errorf("duration must be positive, got %v", c.Duration))
	}
	if c.AppsPerCategory < 1 {
		errs = append(errs, fmt.Errorf("apps per category must be at least 1, got %d", c.AppsPerCategory))
	}
	if c.PopularApps < 0 {
		errs = append(errs, fmt.Errorf("popular apps must not be negative, got %d", c.PopularApps))
	}
	if c.Workers < 0 {
		errs = append(errs, fmt.Errorf("workers must not be negative, got %d", c.Workers))
	}
	if c.Shards < 0 {
		errs = append(errs, fmt.Errorf("shards must not be negative, got %d", c.Shards))
	}
	return errors.Join(errs...)
}

// Quick returns a configuration suitable for tests and benchmarks.
func Quick() Config {
	return Config{Duration: 10 * time.Second, AppsPerCategory: 2, PopularApps: 6, Seed: 1}
}

// MachineSpec names a machine preset.
type MachineSpec struct {
	Name string
	New  func(*sim.Env) *hostsim.Machine
}

// HighEnd and MidEnd are the two testbeds of §5.1; Pixel is the physical
// device of the §2.3 measurement study.
var (
	HighEnd = MachineSpec{Name: "high-end desktop", New: hostsim.HighEndDesktop}
	MidEnd  = MachineSpec{Name: "middle-end laptop", New: hostsim.MidEndLaptop}
	Pixel   = MachineSpec{Name: "pixel-6a", New: hostsim.Pixel6a}
)

// appSeed derives a per-run seed so each (emulator, category, app) tuple is
// independent but reproducible.
func appSeed(base int64, emuIdx, category, app int) int64 {
	return base + int64(emuIdx)*10007 + int64(category)*101 + int64(app)*13 + 1
}

// presets returns vSoC + the five baselines.
func presets() []emulator.Preset { return emulator.All() }
