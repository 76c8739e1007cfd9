package experiments

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/emulator"
	"repro/internal/faults"
	"repro/internal/fleetobs"
	"repro/internal/workload"
)

// shardScaleProjection strips a row to its deterministic columns — the
// contract is that these are byte-identical at every shard count.
type shardScaleProjection struct {
	GuestFPS []float64
	MeanFPS  float64
	Frames   int
	Events   uint64
	Windows  int
}

func projectRow(r ShardScaleRow) shardScaleProjection {
	return shardScaleProjection{
		GuestFPS: r.GuestFPS, MeanFPS: r.MeanFPS, Frames: r.Frames,
		Events: r.Events, Windows: r.Windows,
	}
}

func TestShardScaleDeterministicAcrossCounts(t *testing.T) {
	cfg := Config{Duration: 2 * time.Second, Seed: 1} // Shards 0: the full ladder
	res := RunShardScale(cfg)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (counts 1,2,4)", len(res.Rows))
	}
	for i, want := range []int{1, 2, 4} {
		if got := res.Rows[i].Shards; got != want {
			t.Errorf("row %d labeled shards=%d, want %d", i, got, want)
		}
	}
	if res.Lookahead <= 0 {
		t.Fatalf("Lookahead = %v, want > 0", res.Lookahead)
	}
	base := projectRow(res.Rows[0])
	if base.Frames == 0 || base.Events == 0 || base.Windows == 0 || base.MeanFPS <= 0 {
		t.Fatalf("degenerate serial row: %+v", base)
	}
	if len(base.GuestFPS) != shardFarmGuests {
		t.Fatalf("GuestFPS has %d entries, want %d", len(base.GuestFPS), shardFarmGuests)
	}
	for _, row := range res.Rows[1:] {
		if got := projectRow(row); !reflect.DeepEqual(got, base) {
			t.Errorf("shards=%d diverged from serial:\n got %+v\nwant %+v",
				row.Shards, got, base)
		}
	}
	for _, row := range res.Rows {
		if row.SpeedupX <= 0 {
			t.Errorf("shards=%d: SpeedupX = %v, want > 0", row.Shards, row.SpeedupX)
		}
	}
}

// TestShardScaleFleetDeterministicAcrossCounts pins the §13 contract: the
// fleet report is byte-identical (text and JSON) at every shard count, and
// the barrier-stall attribution covers >= 95% of every shard's window wall
// time. TestGuestObserversObserveOnly checks that the fleet layer leaves
// the simulation untouched.
func TestShardScaleFleetDeterministicAcrossCounts(t *testing.T) {
	cfg := Config{Duration: 2 * time.Second, Seed: 1}
	res := RunShardScale(cfg)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	base := res.Rows[0].Fleet
	baseJSON := mustJSON(t, base)
	baseText := base.FormatText()

	// The hooks must actually flow: tenants present frames, fetch tails
	// are measured, the scheduler advanced windows.
	var frames uint64
	for _, tr := range base.Tenants {
		frames += tr.Frames
	}
	if frames == 0 || base.Sched.Windows == 0 || base.Fleet.FetchP99MS <= 0 {
		t.Fatalf("fleet report looks unwired: frames=%d windows=%d fetch_p99=%g",
			frames, base.Sched.Windows, base.Fleet.FetchP99MS)
	}
	if base.Sched.LookaheadUtil <= 0 || base.Sched.LookaheadUtil > 1 {
		t.Fatalf("lookahead util = %g, want (0, 1]", base.Sched.LookaheadUtil)
	}

	for _, row := range res.Rows[1:] {
		if !bytes.Equal(mustJSON(t, row.Fleet), baseJSON) {
			t.Errorf("shards=%d: fleet report JSON diverged from serial", row.Shards)
		}
		if row.Fleet.FormatText() != baseText {
			t.Errorf("shards=%d: fleet report text diverged from serial", row.Shards)
		}
	}
	for _, row := range res.Rows {
		if row.Stall == nil || row.Stall.Windows == 0 {
			t.Fatalf("shards=%d: missing stall attribution", row.Shards)
		}
		for s := range row.Stall.Shards {
			if cov := row.Stall.Coverage(s); cov < 0.95 {
				t.Errorf("shards=%d shard %d: stall coverage %.3f < 0.95\n%s",
					row.Shards, s, cov, row.Stall.FormatText())
			}
		}
	}
}

func TestShardScaleRespectsRequestedCount(t *testing.T) {
	if got := shardScaleCounts(Config{Shards: 3}); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("Shards=3 counts = %v, want [1 3]", got)
	}
	if got := shardScaleCounts(Config{Shards: 1}); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Shards=1 counts = %v, want [1]", got)
	}
	// Counts clamp to the farm's four guests, as sim.NewShardGroup does,
	// so no row repeats another under a larger label.
	if got := shardScaleCounts(Config{}); !reflect.DeepEqual(got, []int{1, 2, 4}) {
		t.Fatalf("default counts = %v, want [1 2 4]", got)
	}
	if got := shardScaleCounts(Config{Shards: 8}); !reflect.DeepEqual(got, []int{1, 4}) {
		t.Fatalf("Shards=8 counts = %v, want [1 4]", got)
	}
}

func TestShardScaleBenchMetricsShape(t *testing.T) {
	res := RunShardScale(Config{Duration: time.Second, Seed: 1, Shards: 2})
	ms := ShardScaleBenchMetrics(res)
	names := map[string]bool{}
	for _, m := range ms {
		names[m.Name] = true
	}
	for _, want := range []string{
		"shardscale.mean_fps", "shardscale.frames", "shardscale.events_total",
		"shardscale.windows", "shardscale.events_per_sec_serial",
		"shardscale.events_per_sec_shards2", "shardscale.speedup_x",
	} {
		if !names[want] {
			t.Errorf("bench metrics missing %s (have %v)", want, names)
		}
	}
	out := FormatShardScale(res)
	if out == "" {
		t.Fatal("empty formatted report")
	}
}

// runChaosFarm drives a two-guest farm on two shards — optionally with a
// link collapse on guest 0 for the middle third of the run, opening and
// closing mid-window — and returns guest 0's result plus the fleet
// telemetry that watched the run.
func runChaosFarm(t *testing.T, dur time.Duration, fault bool) (*workload.Result, *fleetobs.Fleet, time.Duration) {
	t.Helper()
	f, err := NewFarm(FarmConfig{
		Preset:     emulator.VSoC(),
		Machine:    HighEnd,
		Categories: []int{emulator.CatUHDVideo, emulator.CatLivestream},
		Seed:       1,
		Duration:   dur,
		Shards:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if fault {
		s := f.Sessions[0]
		inj := faults.NewInjector(s.Env, 99)
		inj.Schedule(dur/3, dur/3, faults.LinkCollapse(s.Machine, s.Machine.DRAM, s.Machine.VRAM, 0.4))
		inj.Arm()
		f.Fleet.Tenant(0).AddFaultWindow(dur/3, dur/3)
	}
	results, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return results[0], f.Fleet, f.Stop
}

func TestShardFarmChaosRecoversWithinEnvelope(t *testing.T) {
	// A 60% link collapse on one guest for the middle third — its window
	// opening and closing between barriers — must degrade that guest while
	// it holds and recover to the unfaulted trajectory within the usual
	// robustness envelope afterwards.
	const dur = 9 * time.Second
	base, baseFl, _ := runChaosFarm(t, dur, false)
	faulted, faultFl, stop := runChaosFarm(t, dur, true)
	atSec := int((dur / 3) / time.Second)
	endSec := int((2 * dur / 3) / time.Second)
	baseMid := meanFPSRange(base.PerSecondFPS, atSec, endSec)
	faultMid := meanFPSRange(faulted.PerSecondFPS, atSec, endSec)
	if faultMid >= baseMid {
		t.Fatalf("fault did not bite: faulted mid-run FPS %.2f >= baseline %.2f", faultMid, baseMid)
	}
	baseRec := meanFPSRange(base.PerSecondFPS, endSec+1, len(base.PerSecondFPS))
	faultRec := meanFPSRange(faulted.PerSecondFPS, endSec+1, len(faulted.PerSecondFPS))
	tol := math.Max(0.05*baseRec, 0.5)
	if math.Abs(faultRec-baseRec) > tol {
		t.Fatalf("no recovery: post-fault FPS %.2f vs unfaulted %.2f (tolerance %.2f)",
			faultRec, baseRec, tol)
	}

	// Telemetry sanity: the scheduler metrics must agree with the fleet
	// report — windows counted once per barrier, one barrier-wait sample per
	// shard per window.
	rep := faultFl.Report(stop)
	reg := faultFl.Registry()
	windows := reg.Counter("shard.window.count").Value()
	if windows == 0 {
		t.Fatal("shard.window.count stayed 0 across a 9s farm run")
	}
	if int(windows) != rep.Sched.Windows {
		t.Fatalf("shard.window.count = %d but report says %d windows", windows, rep.Sched.Windows)
	}
	waits := reg.Histogram("shard.barrier.wait").Dist().Count()
	if want := windows * 2; int64(waits) != want { // 2 shards
		t.Fatalf("shard.barrier.wait has %v samples, want windows*shards = %d", waits, want)
	}

	// The mid-barrier link collapse must be visible in the QoS plane: the
	// faulted guest racks up floor-violation seconds inside the fault window
	// that the unfaulted run does not, and its downtime is the declared
	// window.
	inFault := func(secs []int) int {
		n := 0
		for _, s := range secs {
			if s >= atSec && s < endSec {
				n++
			}
		}
		return n
	}
	baseViol := inFault(baseFl.Tenant(0).FloorViolationSeconds(stop))
	faultViol := inFault(faultFl.Tenant(0).FloorViolationSeconds(stop))
	if faultViol <= baseViol {
		t.Fatalf("link collapse invisible in telemetry: %d violation seconds in fault window vs %d unfaulted",
			faultViol, baseViol)
	}
	var downtime float64
	for _, tr := range rep.Tenants {
		if tr.Index == 0 {
			downtime = tr.DowntimeMS
		}
	}
	if want := float64(dur/3) / 1e6; downtime != want {
		t.Fatalf("downtime = %g ms, want %g", downtime, want)
	}
}
