package sim

import "time"

// This file implements the conservative parallel scheduler (DESIGN.md §12):
// a ShardGroup partitions independent environments (one per guest instance)
// into shards, each advancing through its own event queue, synchronized
// only at window barriers. Environments share no events: they couple only
// through state that barrier hooks fold between windows, so within a window
// the shards are independent and can run on separate cores. The window
// width is the group's lookahead — the arbitration epoch of those hooks.
//
// Determinism contract: output is byte-identical at every shard count. The
// window sequence depends only on the global earliest event time (not on the
// partition), each environment's execution inside a window is purely local,
// and barrier hooks run on the coordinating goroutine after every shard has
// parked, so what they decide reaches every environment at the same instant
// however the envs were sharded.

// ShardLoad is one shard's share of a window: virtual events executed and
// the wall-clock time its goroutine spent executing them. Events is
// deterministic; Compute is a host measurement and must never feed back
// into the simulation.
type ShardLoad struct {
	Events  uint64
	Compute time.Duration
}

// ShardWindowStats describes one executed window for an observer. The
// struct is reused across windows — observers must copy anything they keep.
// Base/Limit/Lookahead/Final and every Shards[i].Events are deterministic
// (identical at every shard count for equal seeds); the Wall* fields and
// Shards[i].Compute are wall-clock measurements for stall attribution only.
type ShardWindowStats struct {
	Base      Time // global earliest event time the window opened at
	Limit     Time // window horizon actually executed to
	Lookahead Time // configured conservative horizon
	Final     bool // closed inclusively at the run bound

	WallScan time.Duration // coordinator: global min-scan + window setup
	WallExec time.Duration // coordinator: dispatch through last shard parked
	WallArb  time.Duration // coordinator: barrier hooks

	Shards []ShardLoad // per-shard load, indexed by shard
}

// ShardObserver receives one callback per executed window, on the
// coordinating goroutine, after the barrier hooks. Observers must not
// mutate the group or its environments.
type ShardObserver interface {
	ShardWindow(w *ShardWindowStats)
}

// windowReq asks a worker to advance its shard's environments to limit
// (inclusive of events at the horizon only for the final window of a
// bounded run, mirroring RunUntil's closed bound).
type windowReq struct {
	limit Time
	final bool
}

// ShardGroup runs a set of independent environments under the conservative
// windowed protocol. Construct with NewShardGroup, drive with RunUntil, and
// Close when done (Close stops the worker goroutines, not the
// environments). The group itself must be driven from a single goroutine.
type ShardGroup struct {
	envs      []*Env
	shards    [][]*Env
	lookahead Time
	now       Time

	hooks []func(prev, now Time)

	start  []chan windowReq // one per extra worker (shards beyond the first)
	done   chan struct{}
	closed bool

	// panics[s] holds the value recovered from a panic on shard s during
	// the current window. Each shard writes only its own slot and the
	// coordinator reads them after every shard parked (the done handshake
	// orders both), so a panic anywhere unwinds through RunUntil.
	panics []any

	// obs, when non-nil, receives per-window scheduler telemetry. stats is
	// the reused callback argument; workers write only their own
	// stats.Shards slot during a window and the coordinator reads at the
	// barrier (the channel handshake orders both), so instrumentation is
	// race-free and the disabled path stays zero-alloc.
	obs   ShardObserver
	stats ShardWindowStats
}

// NewShardGroup partitions envs round-robin into at most shards shards.
// lookahead must be positive: it is the window width, the epoch at which
// barrier hooks fold shared state. One shard degenerates to a serial loop
// with no worker goroutines; shard counts above len(envs) are clamped.
func NewShardGroup(lookahead Time, shards int, envs ...*Env) *ShardGroup {
	if lookahead <= 0 {
		panic("sim: shard lookahead must be positive")
	}
	if shards < 1 {
		panic("sim: shard count must be >= 1")
	}
	if len(envs) == 0 {
		panic("sim: shard group needs at least one environment")
	}
	seen := make(map[*Env]struct{}, len(envs))
	for _, e := range envs {
		if e == nil {
			panic("sim: nil environment in shard group")
		}
		if _, dup := seen[e]; dup {
			panic("sim: duplicate environment in shard group")
		}
		seen[e] = struct{}{}
	}
	if shards > len(envs) {
		shards = len(envs)
	}
	g := &ShardGroup{
		envs:      envs,
		shards:    make([][]*Env, shards),
		lookahead: lookahead,
		panics:    make([]any, shards),
	}
	for i, e := range envs {
		s := i % shards
		g.shards[s] = append(g.shards[s], e)
	}
	if shards > 1 {
		g.done = make(chan struct{}, shards-1)
		for s := 1; s < shards; s++ {
			ch := make(chan windowReq)
			g.start = append(g.start, ch)
			go g.worker(s, g.shards[s], ch)
		}
	}
	return g
}

// SetObserver installs (or, with nil, removes) the per-window observer.
// Call before RunUntil; the observer is read by worker goroutines during a
// run, so installing one mid-run is a race.
func (g *ShardGroup) SetObserver(o ShardObserver) {
	g.obs = o
	if o != nil && len(g.stats.Shards) != len(g.shards) {
		g.stats.Shards = make([]ShardLoad, len(g.shards))
	}
}

// worker advances one shard's environments window by window. Each
// environment runs sequentially within the shard; the parallelism is across
// shards. The channel handshake gives the coordinator a happens-before edge
// around every window, so barrier-time reads of env state are race-free.
func (g *ShardGroup) worker(s int, envs []*Env, start <-chan windowReq) {
	for req := range start {
		g.runShardWindow(s, envs, req.limit, req.final)
		g.done <- struct{}{}
	}
}

// runShardWindow advances one shard's environments through a window,
// recording the shard's load when an observer is installed. The fast path
// (no observer) is branch-only: no timing, no allocation. A panic stops the
// shard's window and is kept for RunUntil to rethrow.
func (g *ShardGroup) runShardWindow(s int, envs []*Env, limit Time, final bool) {
	defer g.recoverShard(s)
	if g.obs == nil {
		for _, e := range envs {
			e.runWindow(limit, final)
		}
		return
	}
	wall := time.Now()
	var before uint64
	for _, e := range envs {
		before += e.executed
	}
	for _, e := range envs {
		e.runWindow(limit, final)
	}
	var after uint64
	for _, e := range envs {
		after += e.executed
	}
	ld := &g.stats.Shards[s]
	ld.Events = after - before
	ld.Compute = time.Since(wall)
}

// recoverShard records a panic unwinding shard s's window in its slot.
func (g *ShardGroup) recoverShard(s int) {
	if p := recover(); p != nil {
		g.panics[s] = p
	}
}

// Shards returns the number of shards actually running (after clamping).
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Lookahead returns the conservative window size.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// AtBarrier registers fn to run on the coordinating goroutine at every
// window barrier, after all shards have parked. prev and now bound the
// window just executed. This is the shared-host-resource synchronization
// point: PCIe budget arbitration reads per-env state here and applies its
// decision to the next window, before any event at instant now runs. Hooks
// run in registration order.
func (g *ShardGroup) AtBarrier(fn func(prev, now Time)) {
	if fn == nil {
		panic("sim: AtBarrier with nil hook")
	}
	g.hooks = append(g.hooks, fn)
}

// nextEventAt returns the earliest pending event time across the group.
func (g *ShardGroup) nextEventAt() (Time, bool) {
	var min Time
	have := false
	for _, e := range g.envs {
		if at, ok := e.nextAt(); ok && (!have || at < min) {
			min, have = at, true
		}
	}
	return min, have
}

// runShards executes one window on every shard: the first shard on the
// coordinating goroutine, the rest on their workers. Once every shard has
// parked it rethrows the lowest-indexed shard's panic.
func (g *ShardGroup) runShards(limit Time, final bool) {
	req := windowReq{limit: limit, final: final}
	for _, ch := range g.start {
		ch <- req
	}
	g.runShardWindow(0, g.shards[0], limit, final)
	for range g.start {
		<-g.done
	}
	for _, p := range g.panics {
		if p != nil {
			clear(g.panics)
			panic(p)
		}
	}
}

// RunUntil drives every environment to exactly t under the windowed
// protocol: repeatedly find the global earliest event time T, execute all
// events in [T, T+lookahead) shard-parallel, then run the barrier hooks.
// The final window closes at t inclusively, matching Env.RunUntil's bound.
// A panic on any shard propagates from RunUntil once every shard has
// parked, with the lowest shard index's value.
func (g *ShardGroup) RunUntil(t Time) {
	if g.closed {
		panic("sim: RunUntil on closed shard group")
	}
	for {
		var scanStart time.Time
		if g.obs != nil {
			scanStart = time.Now()
		}
		T, have := g.nextEventAt()
		if !have || T > t {
			// Nothing left inside the bound: advance every clock to t.
			for _, e := range g.envs {
				if e.now < t {
					e.now = t
				}
			}
			if g.now < t {
				prev := g.now
				g.now = t
				for _, h := range g.hooks {
					h(prev, t)
				}
			}
			return
		}
		limit := T + g.lookahead
		final := limit >= t
		if final {
			limit = t
		}
		var execStart time.Time
		if g.obs != nil {
			g.stats.Base, g.stats.Limit = T, limit
			g.stats.Lookahead = g.lookahead
			g.stats.Final = final
			execStart = time.Now()
		}
		g.runShards(limit, final)
		var arbStart time.Time
		if g.obs != nil {
			arbStart = time.Now()
		}
		prev := g.now
		g.now = limit
		for _, h := range g.hooks {
			h(prev, limit)
		}
		if g.obs != nil {
			g.stats.WallScan = execStart.Sub(scanStart)
			g.stats.WallExec = arbStart.Sub(execStart)
			g.stats.WallArb = time.Since(arbStart)
			g.obs.ShardWindow(&g.stats)
		}
		if final {
			return
		}
	}
}

// ExecutedEvents sums the events dispatched across the group's
// environments. Deterministic for equal seeds at any shard count.
func (g *ShardGroup) ExecutedEvents() uint64 {
	var total uint64
	for _, e := range g.envs {
		total += e.executed
	}
	return total
}

// Close stops the worker goroutines. The environments themselves are not
// closed — callers own their lifecycle. Idempotent.
func (g *ShardGroup) Close() {
	if g.closed {
		return
	}
	g.closed = true
	for _, ch := range g.start {
		close(ch)
	}
	g.start = nil
}
