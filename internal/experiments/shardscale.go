package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/emulator"
	"repro/internal/fleetobs"
	"repro/internal/tsmon"
)

// The shardscale experiment drives a multi-guest farm — several vSoC
// instances sharing one physical host — under the conservative parallel
// scheduler (DESIGN.md §12). Each guest is a full emulator session in its
// own simulation environment; a sim.ShardGroup advances the environments in
// lookahead-bounded windows, and a hostsim.SharedHost arbitrates the host's
// aggregate PCIe budget across the guests at every window barrier.
//
// The sweep runs the same four-guest farm at several shard counts. All
// simulation results — per-guest FPS, frames, executed events, barrier
// windows — are byte-identical at every count (the scheduler's determinism
// contract); only the wall-clock throughput column varies with the host's
// parallelism. On a multicore host the events/s column is the §12 scaling
// story; on a single core it degenerates to ~1x by construction.

// shardFarmGuests is the farm size: one guest per Table 1 streaming
// category that exercises a distinct device pipeline.
const shardFarmGuests = 4

// shardFarmCategories rotates the per-guest workloads so the farm mixes
// decode-, camera-, and network-bound pipelines instead of four copies of
// one profile.
var shardFarmCategories = [shardFarmGuests]int{
	emulator.CatUHDVideo, emulator.Cat360Video, emulator.CatCamera, emulator.CatLivestream,
}

// ShardScaleRow is one shard-count setting of the sweep.
type ShardScaleRow struct {
	// Shards is the shard count the farm ran on (Group.Shards()).
	Shards int

	// Deterministic simulation results: identical at every shard count.
	GuestFPS []float64
	MeanFPS  float64
	Frames   int
	Events   uint64
	Windows  int

	// Wall-clock throughput: host-dependent and noisy, excluded from the
	// determinism contract (and from byte-identity assertions).
	WallMS       float64
	EventsPerSec float64
	SpeedupX     float64

	// Fleet telemetry (DESIGN.md §13). Fleet is the deterministic fleet
	// report — byte-identical at every shard count; Stall is the
	// wall-clock barrier-stall attribution, excluded from the determinism
	// contract like the wall columns.
	Fleet *fleetobs.Report
	Stall *fleetobs.StallReport
	// FleetTrace is the Perfetto trace file written for this row when
	// Config.TracePath is set.
	FleetTrace string

	// Mon is the streaming-telemetry report (DESIGN.md §15). Windows seal
	// at the group's barriers, whose sequence depends only on the event
	// stream, so the report — digest included — is byte-identical at every
	// shard count. MonFile is the report file written for this row when
	// Config.MonPath is set.
	Mon     *tsmon.MonReport
	MonFile string
}

// ShardScaleResult is the `-exp shardscale` report.
type ShardScaleResult struct {
	Guests    int
	Lookahead time.Duration
	Rows      []ShardScaleRow
}

// shardScaleCounts returns the shard counts the sweep runs: the {1,2,4,8}
// ladder by default, or {1, cfg.Shards} when a specific count was
// requested. Counts are clamped to the guest count, as sim.NewShardGroup
// clamps them, and duplicates dropped, so no row repeats another.
func shardScaleCounts(cfg Config) []int {
	ladder := []int{1, 2, 4, 8}
	if cfg.Shards > 0 {
		ladder = []int{1, cfg.Shards}
	}
	var counts []int
	for _, n := range ladder {
		n = min(n, shardFarmGuests)
		if len(counts) == 0 || counts[len(counts)-1] != n {
			counts = append(counts, n)
		}
	}
	return counts
}

// RunShardScale sweeps the four-guest farm across shard counts.
func RunShardScale(cfg Config) *ShardScaleResult {
	res := &ShardScaleResult{Guests: shardFarmGuests}
	for _, count := range shardScaleCounts(cfg) {
		row := runShardFarm(cfg, count, &res.Lookahead)
		if len(res.Rows) > 0 && res.Rows[0].EventsPerSec > 0 {
			row.SpeedupX = row.EventsPerSec / res.Rows[0].EventsPerSec
		} else if row.EventsPerSec > 0 {
			row.SpeedupX = 1
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// runShardFarm builds the farm fresh, runs it to the last guest's stop
// time, and folds the results into one row.
func runShardFarm(cfg Config, shards int, lookahead *time.Duration) ShardScaleRow {
	f, err := NewFarm(FarmConfig{
		Preset:     emulator.VSoC(),
		Machine:    HighEnd,
		Categories: shardFarmCategories[:],
		Seed:       cfg.Seed,
		Duration:   cfg.Duration,
		Shards:     shards,
		Trace:      cfg.TracePath != "",
	})
	if err != nil {
		// vSoC runs every category; a failure here is a programming
		// error, not a compat gap.
		panic(fmt.Sprintf("shardscale: %v", err))
	}
	defer f.Close()
	*lookahead = f.Group.Lookahead()
	results, err := f.Run()
	if err != nil {
		panic(fmt.Sprintf("shardscale: %v", err))
	}

	row := ShardScaleRow{
		Shards: f.Group.Shards(),
		Fleet:  f.Fleet.Report(f.Stop),
		Stall:  f.Fleet.StallReport(),
		Mon:    f.Monitor.Report(),
	}
	if cfg.TracePath != "" {
		path := fmt.Sprintf("%s-fleet-shards%d.json",
			strings.TrimSuffix(cfg.TracePath, ".json"), row.Shards)
		row.FleetTrace = writeTrace(path, f.Fleet.Tracer())
	}
	if cfg.MonPath != "" {
		path := fmt.Sprintf("%s-shards%d.json",
			strings.TrimSuffix(cfg.MonPath, ".json"), row.Shards)
		row.MonFile = writeReport(path, row.Mon.WriteJSON)
	}

	for _, r := range results {
		row.GuestFPS = append(row.GuestFPS, r.FPS)
		row.MeanFPS += r.FPS / shardFarmGuests
		row.Frames += r.Frames
	}
	row.Windows = f.Windows
	row.Events = f.Group.ExecutedEvents()
	row.WallMS = float64(f.Wall.Microseconds()) / 1000
	if s := f.Wall.Seconds(); s > 0 {
		row.EventsPerSec = float64(row.Events) / s
	}
	return row
}

// FormatShardScale renders the sweep. The simulation columns are identical
// on every row — that sameness is the point; the wall columns are the
// host-dependent throughput measurement.
func FormatShardScale(r *ShardScaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Shard-scaling sweep (%d-guest farm, lookahead %v, DESIGN.md §12):\n",
		r.Guests, r.Lookahead)
	b.WriteString("  shards   mean FPS   per-guest FPS            frames    events     windows   wall ms    events/s   speedup   floor%    slo%   m2p_p99   fetch_p99   strag\n")
	for _, row := range r.Rows {
		guests := make([]string, len(row.GuestFPS))
		for i, f := range row.GuestFPS {
			guests[i] = fmt.Sprintf("%.1f", f)
		}
		f := row.Fleet.Fleet
		fmt.Fprintf(&b, "  %6d   %8.2f   %-22s   %6d   %8d   %7d   %7.1f   %9.0f   %6.2fx   %6.1f   %5.1f   %5.2fms   %7.2fms   %5d\n",
			row.Shards, row.MeanFPS, strings.Join(guests, " "),
			row.Frames, row.Events, row.Windows, row.WallMS,
			row.EventsPerSec, row.SpeedupX,
			f.FloorAttainment*100, f.SLOAttainment*100,
			f.M2PP99MS, f.FetchP99MS, len(f.Stragglers))
	}
	b.WriteString("  (simulation columns are byte-identical across shard counts; wall columns are host-dependent)\n\n")
	b.WriteString(r.Rows[0].Fleet.FormatText())
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "\n[shards=%d] %s", row.Shards, row.Stall.FormatText())
	}
	for _, row := range r.Rows {
		if row.FleetTrace != "" {
			fmt.Fprintf(&b, "trace shards=%d %s\n", row.Shards, row.FleetTrace)
		}
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "[shards=%d] monitor: %d window(s) sealed, %d incident(s), digest %s\n",
			row.Shards, row.Mon.Sealed, len(row.Mon.Incidents), row.Mon.Digest)
		if row.MonFile != "" {
			fmt.Fprintf(&b, "  monitor report %s\n", row.MonFile)
		}
	}
	b.WriteString("  (monitor reports are byte-identical across shard counts — equal digests are the §15 determinism contract)\n")
	return b.String()
}

// ShardScaleBenchMetrics projects the sweep into the bench trajectory. The
// fps/frames/events/windows metrics are deterministic; the events/s and
// speedup metrics measure the build host and need threshold overrides in
// perf gates.
func ShardScaleBenchMetrics(r *ShardScaleResult) []BenchMetric {
	if len(r.Rows) == 0 {
		return nil
	}
	serial, widest := r.Rows[0], r.Rows[len(r.Rows)-1]
	ms := []BenchMetric{
		{Name: "shardscale.mean_fps", Value: serial.MeanFPS, Unit: "fps", Better: "higher"},
		{Name: "shardscale.frames", Value: float64(serial.Frames), Unit: "frames", Better: "higher"},
		{Name: "shardscale.events_total", Value: float64(serial.Events), Unit: "events", Better: "higher"},
		{Name: "shardscale.windows", Value: float64(serial.Windows), Unit: "windows", Better: "higher"},
		{Name: "shardscale.events_per_sec_serial", Value: serial.EventsPerSec, Unit: "events/s", Better: "higher"},
	}
	if widest.Shards > 1 {
		ms = append(ms,
			BenchMetric{Name: fmt.Sprintf("shardscale.events_per_sec_shards%d", widest.Shards),
				Value: widest.EventsPerSec, Unit: "events/s", Better: "higher"},
			BenchMetric{Name: "shardscale.speedup_x", Value: widest.SpeedupX, Unit: "x", Better: "higher"})
	}
	// Fleet metrics (DESIGN.md §13): the QoS/tail aggregate is
	// deterministic; barrier_stall_frac measures the build host's wall
	// clock like events/s and needs the same wide gate threshold.
	f := serial.Fleet
	ms = append(ms,
		BenchMetric{Name: "fleet.floor_attainment", Value: f.Fleet.FloorAttainment, Unit: "frac", Better: "higher"},
		BenchMetric{Name: "fleet.slo_attainment", Value: f.Fleet.SLOAttainment, Unit: "frac", Better: "higher"},
		BenchMetric{Name: "fleet.m2p_p99_ms", Value: f.Fleet.M2PP99MS, Unit: "ms", Better: "lower"},
		BenchMetric{Name: "fleet.fetch_p99_ms", Value: f.Fleet.FetchP99MS, Unit: "ms", Better: "lower"},
		BenchMetric{Name: "fleet.lookahead_util", Value: f.Sched.LookaheadUtil, Unit: "frac", Better: "higher"},
		BenchMetric{Name: "fleet.stragglers", Value: float64(len(f.Fleet.Stragglers)), Unit: "tenants", Better: "lower"},
	)
	if widest.Shards > 1 {
		if frac := barrierStallFrac(widest.Stall); frac >= 0 {
			ms = append(ms, BenchMetric{Name: "fleet.barrier_stall_frac", Value: frac, Unit: "frac", Better: "lower"})
		}
	}
	return ms
}

// barrierStallFrac is the fraction of the run's shard-window wall time
// spent parked at barriers, summed across shards: a wall-clock diagnosis
// of why -shards N does not reach Nx. Negative when unmeasurable.
func barrierStallFrac(s *fleetobs.StallReport) float64 {
	if len(s.Shards) == 0 || s.WallExec <= 0 {
		return -1
	}
	var barrier time.Duration
	for _, sh := range s.Shards {
		barrier += sh.Barrier
	}
	return float64(barrier) / (float64(s.WallExec) * float64(len(s.Shards)))
}
