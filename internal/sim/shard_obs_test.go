package sim

import (
	"testing"
	"time"
)

// winKey is the deterministic (partition-independent) slice of one window.
type winKey struct {
	Base, Limit, Lookahead Time
	Final                  bool
}

// windowRecorder copies the deterministic fields of every observed window.
type windowRecorder struct {
	windows []winKey
	events  []uint64 // per-window event totals (partition-independent)
}

func (r *windowRecorder) ShardWindow(w *ShardWindowStats) {
	var total uint64
	for _, ld := range w.Shards {
		total += ld.Events
	}
	r.windows = append(r.windows, winKey{
		Base: w.Base, Limit: w.Limit, Lookahead: w.Lookahead,
		Final: w.Final,
	})
	r.events = append(r.events, total)
}

// TestShardObserverDeterministicAcrossCounts pins the instrumentation's
// own contract: window bounds and per-window event totals are identical at
// every shard count, the events sum matches ExecutedEvents, and attaching an
// observer does not perturb execution.
func TestShardObserverDeterministicAcrossCounts(t *testing.T) {
	const horizon = 30 * time.Millisecond
	run := func(shards int, observe bool) (*windowRecorder, string, uint64) {
		envs, logs := shardRig(5)
		g := NewShardGroup(500*time.Microsecond, shards, envs...)
		defer g.Close()
		var rec *windowRecorder
		if observe {
			rec = &windowRecorder{}
			g.SetObserver(rec)
		}
		g.RunUntil(horizon)
		return rec, flattenLogs(logs), g.ExecutedEvents()
	}

	_, wantLog, wantEvents := run(1, false)
	var base *windowRecorder
	for _, shards := range []int{1, 2, 4, 8} {
		rec, log, events := run(shards, true)
		if log != wantLog {
			t.Fatalf("shards=%d: observer perturbed execution", shards)
		}
		if events != wantEvents {
			t.Fatalf("shards=%d: ExecutedEvents = %d, want %d", shards, events, wantEvents)
		}
		var sum uint64
		for _, e := range rec.events {
			sum += e
		}
		if sum != wantEvents {
			t.Fatalf("shards=%d: observed window events sum %d, want %d", shards, sum, wantEvents)
		}
		if len(rec.windows) == 0 {
			t.Fatalf("shards=%d: no windows observed", shards)
		}
		if base == nil {
			base = rec
			continue
		}
		if len(rec.windows) != len(base.windows) {
			t.Fatalf("shards=%d: %d windows, want %d", shards, len(rec.windows), len(base.windows))
		}
		for i := range rec.windows {
			if rec.windows[i] != base.windows[i] || rec.events[i] != base.events[i] {
				t.Fatalf("shards=%d window %d: %+v (events %d), want %+v (events %d)",
					shards, i, rec.windows[i], rec.events[i], base.windows[i], base.events[i])
			}
		}
	}
}

// TestShardObserverShardLoads checks the per-shard split: every window's
// shard slice has one slot per shard and the split sums to the window
// total.
func TestShardObserverShardLoads(t *testing.T) {
	envs, _ := shardRig(4)
	g := NewShardGroup(500*time.Microsecond, 4, envs...)
	defer g.Close()
	var windows int
	var sum uint64
	g.SetObserver(shardWindowFunc(func(w *ShardWindowStats) {
		windows++
		if len(w.Shards) != 4 {
			t.Fatalf("window has %d shard slots, want 4", len(w.Shards))
		}
		for _, ld := range w.Shards {
			sum += ld.Events
		}
		if w.Limit <= w.Base && !w.Final {
			t.Fatalf("non-final window did not advance: [%v, %v]", w.Base, w.Limit)
		}
	}))
	g.RunUntil(30 * time.Millisecond)
	if windows == 0 || sum != g.ExecutedEvents() {
		t.Fatalf("windows=%d shard-event sum=%d, want sum=%d", windows, sum, g.ExecutedEvents())
	}
}

type shardWindowFunc func(w *ShardWindowStats)

func (f shardWindowFunc) ShardWindow(w *ShardWindowStats) { f(w) }
