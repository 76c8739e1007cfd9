// Package fleetobs is the fleet/scheduler observability layer over the
// conservative parallel runtime (DESIGN.md §13, building on the §12 shard
// scheduler and the §8 obs infrastructure). It watches three planes at
// once: scheduler introspection (per-window advance span, per-shard barrier
// wait, lookahead utilization), shared-host arbitration (per-window demand
// vs budget, applied scale), and per-tenant QoS (FPS vs a configurable
// floor, motion-to-photon vs SLO, demand-fetch tail latency from a
// fixed-bucket log-scale histogram, fault-window downtime), folding them
// into Perfetto counter tracks, violation spans, a wall-clock barrier-stall
// attribution table, and a machine-readable fleet report.
//
// Determinism contract: the layer is observe-only — with a Fleet attached,
// simulation results are byte-identical to a run without one, and the
// disabled path (no Fleet constructed) costs a nil check and zero
// allocations at every hook. Report derives exclusively from virtual-time
// quantities and integer bucket counts, so its text and JSON renderings are
// byte-identical at every shard count for equal seeds; every wall-clock
// measurement (per-shard compute, barrier wait, arbitration spans) is
// quarantined in StallReport, which is attribution-exact by construction
// but never deterministic.
package fleetobs

import (
	"time"

	"repro/internal/hostsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config parameterizes a Fleet.
type Config struct {
	// Tenants declares the guests in fleet order (one per environment).
	Tenants []TenantConfig
	// Tracer, when non-nil, receives fleet counter tracks (fleet:sched,
	// fleet:host) and per-tenant violation spans (tenant:<name>). The
	// fleet owns the tracer's clock: it binds SetNow to the barrier clock.
	Tracer *obs.Tracer
	// Registry, when non-nil, receives the scheduler sanity metrics
	// (shard.window.count, shard.barrier.wait).
	Registry *obs.Registry
}

// stragglerK flags a tenant whose tail p99 exceeds K times the fleet median
// p99 (computed independently for motion-to-photon and demand-fetch pools).
const stragglerK = 1.5

// shardAccum is one shard's run-long wall accumulation.
type shardAccum struct {
	events  uint64
	compute time.Duration
	barrier time.Duration
}

// Fleet aggregates scheduler, shared-host, and tenant telemetry for one
// sharded farm run. Construct with New, wire tenants into their guests
// (emulator FrameObs, svm SetFetchObserver), Attach to the group and
// arbiter, drive the run, then Finalize and render Report/StallReport.
//
// Concurrency: ShardWindow and HostWindow run on the coordinating
// goroutine; each Tenant is fed only from its own guest's environment.
// Aggregation happens at barriers and after the run, under the group's
// happens-before edges, so the layer needs no locks.
type Fleet struct {
	cfg     Config
	tenants []*Tenant

	// Scheduler plane (coordinator only). Virtual-time fields are
	// deterministic; wall* fields are host measurements.
	windows      int
	finalWindows int
	advanced     time.Duration
	horizon      time.Duration
	events       uint64
	wallScan     time.Duration
	wallExec     time.Duration
	wallArb      time.Duration
	shards       []shardAccum

	// Shared-host plane (coordinator only, all deterministic).
	hostWindows  int
	hostDemand   hostsim.Bytes
	hostBusy     time.Duration
	hostScaleSum float64
	hostMinScale float64

	now time.Duration // fleet barrier clock; drives the tracer

	schedTk, hostTk obs.Track
	winCount        *obs.Counter
	barrierWait     *obs.Histogram
}

// New builds a Fleet over the configured tenants. A nil-tracer,
// nil-registry config is valid: the fleet then only aggregates.
func New(cfg Config) *Fleet {
	f := &Fleet{cfg: cfg, hostMinScale: 1}
	for i, tc := range cfg.Tenants {
		f.tenants = append(f.tenants, newTenant(tc, i))
	}
	tr := cfg.Tracer
	f.schedTk = tr.Track("fleet:sched")
	f.hostTk = tr.Track("fleet:host")
	if tr != nil {
		for _, t := range f.tenants {
			t.track = tr.Track("tenant:" + t.cfg.Name)
		}
		tr.SetNow(func() time.Duration { return f.now })
	}
	reg := cfg.Registry
	f.winCount = reg.Counter("shard.window.count")
	f.barrierWait = reg.Histogram("shard.barrier.wait")
	return f
}

// Tenant returns the i'th tenant, for wiring into its guest's hooks.
func (f *Fleet) Tenant(i int) *Tenant { return f.tenants[i] }

// Tracer returns the fleet trace sink (nil when tracing is off).
func (f *Fleet) Tracer() *obs.Tracer { return f.cfg.Tracer }

// Registry returns the fleet metrics registry (nil when metrics are off).
func (f *Fleet) Registry() *obs.Registry { return f.cfg.Registry }

// Tenants returns the number of configured tenants.
func (f *Fleet) Tenants() int { return len(f.tenants) }

// Attach registers the fleet as the group's shard observer and, when sh is
// non-nil, as the shared host's window observer.
func (f *Fleet) Attach(g *sim.ShardGroup, sh *hostsim.SharedHost) {
	g.SetObserver(f)
	if sh != nil {
		sh.SetObserver(f.HostWindow)
	}
}

// ShardWindow implements sim.ShardObserver: fold one executed window into
// the scheduler plane and emit its counter samples.
func (f *Fleet) ShardWindow(w *sim.ShardWindowStats) {
	f.now = w.Limit
	f.windows++
	if w.Final {
		f.finalWindows++
	}
	adv := w.Limit - w.Base
	f.advanced += adv
	f.horizon += w.Lookahead
	f.wallScan += w.WallScan
	f.wallExec += w.WallExec
	f.wallArb += w.WallArb
	if len(f.shards) < len(w.Shards) {
		f.shards = append(f.shards, make([]shardAccum, len(w.Shards)-len(f.shards))...)
	}
	var winEvents uint64
	for s := range w.Shards {
		ld := &w.Shards[s]
		acc := &f.shards[s]
		acc.events += ld.Events
		acc.compute += ld.Compute
		wait := w.WallExec - ld.Compute
		if wait < 0 {
			wait = 0
		}
		acc.barrier += wait
		winEvents += ld.Events
		f.barrierWait.Observe(float64(wait) / 1e6) // ms
	}
	f.events += winEvents
	f.winCount.Inc()
	if tr := f.cfg.Tracer; tr != nil {
		tr.Count(f.schedTk, "advance_us", float64(adv)/1e3)
		util := 0.0
		if w.Lookahead > 0 {
			util = float64(adv) / float64(w.Lookahead)
		}
		tr.Count(f.schedTk, "lookahead_util", util)
		tr.Count(f.schedTk, "events", float64(winEvents))
	}
}

// HostWindow is the shared-host observer hook: fold one arbitration window
// into the host plane and emit its counter samples.
func (f *Fleet) HostWindow(w *hostsim.SharedWindowStats) {
	f.hostWindows++
	f.hostDemand += w.DemandBytes
	f.hostBusy += w.BusyTime
	f.hostScaleSum += w.Scale
	if w.Scale < f.hostMinScale {
		f.hostMinScale = w.Scale
	}
	if tr := f.cfg.Tracer; tr != nil {
		dt := (w.Now - w.Prev).Seconds()
		gbps := 0.0
		if dt > 0 {
			gbps = float64(w.DemandBytes) / dt / 1e9
		}
		tr.Count(f.hostTk, "demand_gbps", gbps)
		tr.Count(f.hostTk, "scale", w.Scale)
	}
}

// Finalize closes the run at virtual instant end: it emits each tenant's
// violation and fault-window spans to the tracer. Call once, after the
// group has finished; Report and StallReport remain valid afterwards.
func (f *Fleet) Finalize(end time.Duration) {
	f.now = end
	tr := f.cfg.Tracer
	if tr == nil {
		return
	}
	for _, t := range f.tenants {
		t.emitSpans(tr, end)
	}
}
