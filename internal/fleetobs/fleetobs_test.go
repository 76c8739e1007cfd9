package fleetobs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// feedTenant drives a synthetic steady guest: fps frames per second for
// secs seconds, with every frame carrying an m2p latency.
func feedTenant(t *Tenant, fps int, secs int, m2p time.Duration) {
	for s := 0; s < secs; s++ {
		for i := 0; i < fps; i++ {
			at := time.Duration(s)*time.Second + time.Duration(i)*time.Second/time.Duration(fps+1)
			t.FramePresented(at)
			t.MotionToPhoton(at, m2p)
		}
	}
}

// TestEmptyTenantReport pins the dead-guest edge: a tenant that never
// presented a frame violates its floor every second and reports clean
// zeros (no NaN) everywhere else.
func TestEmptyTenantReport(t *testing.T) {
	f := New(Config{Tenants: []TenantConfig{{Name: "dead", FPSFloor: 30, M2PSLO: 50 * time.Millisecond}}})
	r := f.Report(3 * time.Second)
	tr := r.Tenants[0]
	if tr.Frames != 0 || tr.MeanFPS != 0 {
		t.Fatalf("empty tenant has frames: %+v", tr)
	}
	if tr.FloorAttainment != 0 || tr.FloorViolations != 3 {
		t.Fatalf("empty tenant floor attainment = %g (%d violations), want 0 (3)", tr.FloorAttainment, tr.FloorViolations)
	}
	if tr.M2PAttainment != 1 {
		t.Fatalf("no m2p samples must be vacuously attained, got %g", tr.M2PAttainment)
	}
	if tr.M2PP99MS != 0 || tr.FetchP99MS != 0 {
		t.Fatalf("empty percentiles must be 0: %+v", tr)
	}
	js, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(js, []byte("NaN")) || bytes.Contains(js, []byte("Inf")) {
		t.Fatalf("report JSON contains non-finite values:\n%s", js)
	}
}

func TestTenantAttainmentAndViolations(t *testing.T) {
	f := New(Config{Tenants: []TenantConfig{{Name: "g", FPSFloor: 30, M2PSLO: 50 * time.Millisecond}}})
	tn := f.Tenant(0)
	feedTenant(tn, 40, 2, 20*time.Millisecond) // seconds 0,1 healthy
	// Second 2: collapsed to 10 FPS with SLO-busting latency.
	for i := 0; i < 10; i++ {
		at := 2*time.Second + time.Duration(i)*90*time.Millisecond
		tn.FramePresented(at)
		tn.MotionToPhoton(at, 120*time.Millisecond)
	}
	r := f.Report(3 * time.Second)
	tr := r.Tenants[0]
	if tr.FloorViolations != 1 || tr.FloorAttainment < 0.66 || tr.FloorAttainment > 0.67 {
		t.Fatalf("floor: %d violations, attainment %g; want 1, ~0.667", tr.FloorViolations, tr.FloorAttainment)
	}
	wantM2P := float64(80) / 90
	if tr.M2PViolations != 10 || tr.M2PAttainment < wantM2P-0.01 || tr.M2PAttainment > wantM2P+0.01 {
		t.Fatalf("m2p: %d violations, attainment %g; want 10, ~%.3f", tr.M2PViolations, tr.M2PAttainment, wantM2P)
	}
	if got := tn.FloorViolationSeconds(3 * time.Second); len(got) != 1 || got[0] != 2 {
		t.Fatalf("violation seconds = %v, want [2]", got)
	}
}

func TestStragglerDetection(t *testing.T) {
	var cfg Config
	for _, n := range []string{"a", "b", "c", "d"} {
		cfg.Tenants = append(cfg.Tenants, TenantConfig{Name: n})
	}
	f := New(cfg)
	for i := 0; i < 4; i++ {
		lat := 2 * time.Millisecond
		if i == 3 {
			lat = 40 * time.Millisecond // way past 1.5x the fleet median
		}
		for k := 0; k < 50; k++ {
			f.Tenant(i).DemandFetch(time.Duration(k)*time.Millisecond, lat)
		}
	}
	r := f.Report(time.Second)
	if len(r.Fleet.Stragglers) != 1 || r.Fleet.Stragglers[0] != "d" {
		t.Fatalf("stragglers = %v, want [d]", r.Fleet.Stragglers)
	}
	for _, tr := range r.Tenants {
		if tr.Straggler != (tr.Name == "d") {
			t.Fatalf("straggler flag wrong on %q", tr.Name)
		}
	}
}

func TestDowntimeClipsToRun(t *testing.T) {
	f := New(Config{Tenants: []TenantConfig{{Name: "g"}}})
	f.Tenant(0).AddFaultWindow(2*time.Second, 3*time.Second) // clips at end=4s
	r := f.Report(4 * time.Second)
	if got := r.Tenants[0].DowntimeMS; got != 2000 {
		t.Fatalf("downtime = %g ms, want 2000", got)
	}
}

// TestReportStableAcrossBuilds feeds two fleets identically and requires
// byte-identical text and JSON renderings — the per-run half of the
// cross-shard-count byte-identity contract.
func TestReportStableAcrossBuilds(t *testing.T) {
	build := func() *Report {
		f := New(Config{Tenants: []TenantConfig{
			{Name: "uhd", FPSFloor: 30},
			{Name: "cam", FPSFloor: 30, M2PSLO: 80 * time.Millisecond},
		}})
		feedTenant(f.Tenant(0), 58, 3, 0)
		feedTenant(f.Tenant(1), 33, 3, 25*time.Millisecond)
		for k := 0; k < 40; k++ {
			f.Tenant(0).DemandFetch(time.Duration(k)*time.Millisecond, time.Duration(1+k%7)*time.Millisecond)
		}
		return f.Report(3 * time.Second)
	}
	a, b := build(), build()
	aj, _ := a.JSON()
	bj, _ := b.JSON()
	if !bytes.Equal(aj, bj) {
		t.Fatalf("JSON not stable:\n%s\nvs\n%s", aj, bj)
	}
	if a.FormatText() != b.FormatText() {
		t.Fatalf("text not stable")
	}
}

// TestStallAttributionCoverage drives a real shard group under the fleet
// observer and requires the attribution to cover at least 95% of every
// shard's window wall time (it is exact by construction; the margin only
// absorbs clock-read jitter).
func TestStallAttributionCoverage(t *testing.T) {
	envs := make([]*sim.Env, 4)
	for i := range envs {
		e := sim.NewEnv(int64(10 + i))
		defer e.Close()
		var tick func()
		n := 0
		tick = func() {
			n++
			if e.Now() < 20*time.Millisecond {
				e.After(time.Duration(50+e.Rand().Intn(200))*time.Microsecond, tick)
			}
		}
		e.After(time.Millisecond, tick)
		envs[i] = e
	}
	g := sim.NewShardGroup(500*time.Microsecond, 2, envs...)
	defer g.Close()
	f := New(Config{Tenants: []TenantConfig{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}}})
	f.Attach(g, nil)
	g.RunUntil(25 * time.Millisecond)

	sr := f.StallReport()
	if sr.Windows == 0 || len(sr.Shards) != 2 {
		t.Fatalf("stall report: %d windows, %d shards", sr.Windows, len(sr.Shards))
	}
	for s := range sr.Shards {
		if cov := sr.Coverage(s); cov < 0.95 {
			t.Fatalf("shard %d coverage %.3f < 0.95\n%s", s, cov, sr.FormatText())
		}
	}
	if !strings.Contains(sr.FormatText(), "coverage") {
		t.Fatalf("stall table missing coverage column")
	}
}

// TestViolationSpansAndCounters checks the trace/metrics side: violation
// spans land on the tenant track with virtual timestamps, and the registry
// carries the shard sanity metrics.
func TestViolationSpansAndCounters(t *testing.T) {
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	f := New(Config{
		Tenants:  []TenantConfig{{Name: "g0", FPSFloor: 30}},
		Tracer:   tr,
		Registry: reg,
	})
	feedTenant(f.Tenant(0), 40, 1, 0) // second 0 healthy
	// seconds 1-2 silent: floor violations
	f.Tenant(0).AddFaultWindow(time.Second, time.Second)
	f.ShardWindow(&sim.ShardWindowStats{
		Base: 0, Limit: 2 * time.Millisecond, Lookahead: 2 * time.Millisecond,
		Shards: []sim.ShardLoad{{Events: 10, Compute: time.Microsecond}},
	})
	f.Finalize(3 * time.Second)

	var viol, fault int
	for _, ev := range tr.Events() {
		if ev.Name == "fps-floor-violation" {
			viol++
			if ev.At != time.Second || ev.Dur != 2*time.Second {
				t.Fatalf("violation span [%v +%v], want [1s +2s]", ev.At, ev.Dur)
			}
		}
		if ev.Name == "fault-window" {
			fault++
		}
	}
	if viol != 1 || fault != 1 {
		t.Fatalf("spans: %d violation, %d fault; want 1, 1", viol, fault)
	}
	if got := reg.Counter("shard.window.count").Value(); got != 1 {
		t.Fatalf("shard.window.count = %d, want 1", got)
	}
	if got := reg.Histogram("shard.barrier.wait").Dist().Count(); got != 1 {
		t.Fatalf("shard.barrier.wait count = %v, want 1", got)
	}
}

// TestDisabledPathZeroAlloc pins the house rule: a shard group without an
// observer allocates nothing extra per window, and the emulator-facing
// tenant hooks allocate nothing per frame in steady state.
func TestDisabledPathZeroAlloc(t *testing.T) {
	e := sim.NewEnv(7)
	defer e.Close()
	g := sim.NewShardGroup(time.Millisecond, 1, e)
	defer g.Close()
	var at time.Duration
	if allocs := testing.AllocsPerRun(50, func() {
		at += 2 * time.Millisecond
		e.After(time.Millisecond, func() {})
		g.RunUntil(at)
	}); allocs != 0 {
		t.Fatalf("unobserved shard window allocates %.1f per run, want 0", allocs)
	}

	tn := newTenant(TenantConfig{Name: "g", FPSFloor: 30, M2PSLO: time.Millisecond}, 0)
	tn.FramePresented(10 * time.Second) // pre-grow the per-second buckets
	if allocs := testing.AllocsPerRun(100, func() {
		tn.FramePresented(5 * time.Second)
		tn.FrameDropped(5 * time.Second)
		tn.DemandFetch(5*time.Second, time.Millisecond)
		tn.MotionToPhoton(5*time.Second, 500*time.Microsecond)
	}); allocs != 0 {
		t.Fatalf("steady-state tenant hooks allocate %.1f per run, want 0", allocs)
	}
}

// TestStallAttributionSingleShard pins the degenerate scheduler shape: with
// every guest on one shard there is no peer to wait for, yet the fleet
// observer must still produce a report — exactly one shard row whose
// attribution covers the window wall time, same contract as the
// multi-shard case.
func TestStallAttributionSingleShard(t *testing.T) {
	envs := make([]*sim.Env, 3)
	for i := range envs {
		e := sim.NewEnv(int64(40 + i))
		defer e.Close()
		var tick func()
		tick = func() {
			if e.Now() < 20*time.Millisecond {
				e.After(time.Duration(50+e.Rand().Intn(200))*time.Microsecond, tick)
			}
		}
		e.After(time.Millisecond, tick)
		envs[i] = e
	}
	g := sim.NewShardGroup(500*time.Microsecond, 1, envs...)
	defer g.Close()
	f := New(Config{Tenants: []TenantConfig{{Name: "a"}, {Name: "b"}, {Name: "c"}}})
	f.Attach(g, nil)
	g.RunUntil(25 * time.Millisecond)

	sr := f.StallReport()
	if sr.Windows == 0 || len(sr.Shards) != 1 {
		t.Fatalf("stall report: %d windows, %d shards (want 1)", sr.Windows, len(sr.Shards))
	}
	if cov := sr.Coverage(0); cov < 0.95 {
		t.Fatalf("single-shard coverage %.3f < 0.95\n%s", cov, sr.FormatText())
	}
	if !strings.Contains(sr.FormatText(), "coverage") {
		t.Fatalf("stall table missing coverage column")
	}
}
