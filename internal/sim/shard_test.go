package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// shardRig builds n environments, each running a deterministic workload of
// sleeping processes and rescheduling timers driven by the env's own rng,
// and returns the envs plus per-env execution logs (instants at which work
// ran). The logs are the byte-comparable fingerprint of a run.
func shardRig(n int) ([]*Env, []*[]string) {
	envs := make([]*Env, n)
	logs := make([]*[]string, n)
	for i := 0; i < n; i++ {
		idx := i
		e := NewEnv(int64(100 + i))
		log := &[]string{}
		envs[i], logs[i] = e, log
		for w := 0; w < 3; w++ {
			wi := w
			e.Spawn(fmt.Sprintf("w%d", w), func(p *Proc) {
				for k := 0; k < 40; k++ {
					d := time.Duration(1+e.Rand().Intn(700)) * time.Microsecond
					p.Sleep(d)
					*log = append(*log, fmt.Sprintf("%d/%d@%v", idx, wi, p.Now()))
				}
			})
		}
		var tick func()
		tick = func() {
			*log = append(*log, fmt.Sprintf("%d/t@%v", idx, e.Now()))
			if e.Now() < 20*time.Millisecond {
				e.After(time.Duration(1+e.Rand().Intn(900))*time.Microsecond, tick)
			}
		}
		e.After(time.Millisecond, tick)
	}
	return envs, logs
}

func flattenLogs(logs []*[]string) string {
	var out string
	for _, l := range logs {
		for _, s := range *l {
			out += s + "\n"
		}
	}
	return out
}

// TestShardGroupMatchesSerialEnvs pins the core determinism contract: a
// shard group at any shard count produces byte-identical execution to
// driving each environment serially with Env.RunUntil.
func TestShardGroupMatchesSerialEnvs(t *testing.T) {
	const horizon = 30 * time.Millisecond
	serialEnvs, serialLogs := shardRig(5)
	for _, e := range serialEnvs {
		e.RunUntil(horizon)
	}
	want := flattenLogs(serialLogs)
	var wantEvents uint64
	for _, e := range serialEnvs {
		wantEvents += e.ExecutedEvents()
		e.Close()
	}

	for _, shards := range []int{1, 2, 4, 8} {
		envs, logs := shardRig(5)
		g := NewShardGroup(500*time.Microsecond, shards, envs...)
		g.RunUntil(horizon)
		if got := flattenLogs(logs); got != want {
			t.Fatalf("shards=%d: execution diverged from serial\n got: %.200s\nwant: %.200s", shards, got, want)
		}
		if g.ExecutedEvents() != wantEvents {
			t.Fatalf("shards=%d: ExecutedEvents = %d, want %d", shards, g.ExecutedEvents(), wantEvents)
		}
		for _, e := range envs {
			if e.Now() != horizon {
				t.Fatalf("shards=%d: env clock at %v, want %v", shards, e.Now(), horizon)
			}
		}
		g.Close()
		for _, e := range envs {
			e.Close()
		}
	}
}

// TestShardGroupBarrierHooks checks the shared-resource synchronization
// point: hooks run at every window barrier with contiguous, monotone
// window bounds covering the whole run, identically at every shard count.
func TestShardGroupBarrierHooks(t *testing.T) {
	run := func(shards int) []string {
		envs, _ := shardRig(4)
		g := NewShardGroup(time.Millisecond, shards, envs...)
		var windows []string
		prevEnd := Time(0)
		g.AtBarrier(func(prev, now Time) {
			if prev != prevEnd {
				t.Errorf("window start %v, want previous end %v", prev, prevEnd)
			}
			if now <= prev {
				t.Errorf("non-advancing window [%v, %v]", prev, now)
			}
			prevEnd = now
			windows = append(windows, fmt.Sprintf("[%v %v]", prev, now))
		})
		g.RunUntil(25 * time.Millisecond)
		if prevEnd != 25*time.Millisecond {
			t.Errorf("last window ended at %v, want the horizon", prevEnd)
		}
		g.Close()
		for _, e := range envs {
			e.Close()
		}
		return windows
	}
	want := run(1)
	if len(want) < 5 {
		t.Fatalf("only %d windows; the rig should produce many", len(want))
	}
	for _, shards := range []int{2, 4} {
		got := run(shards)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("shards=%d: window sequence diverged", shards)
		}
	}
}

// TestShardGroupBarrierPrecedesLimitEvents pins why a window's bound is
// exclusive: an event scheduled exactly at a non-final window limit runs
// after that barrier's hooks, so what the hooks decide at an instant (the
// shared-host arbitration) reaches every event at that instant — identically
// at every shard count.
func TestShardGroupBarrierPrecedesLimitEvents(t *testing.T) {
	const lookahead = time.Millisecond
	var want string
	for i := 0; i < 4; i++ {
		for k := Time(1); k <= 3; k++ {
			want += fmt.Sprintf("%d@%v saw epoch %v\n", i, k*lookahead, k*lookahead)
		}
	}
	for _, shards := range []int{1, 2, 4} {
		envs := make([]*Env, 4)
		seen := make([]*[]string, len(envs))
		var epoch Time // written only by the barrier hook
		for i := range envs {
			e := NewEnv(int64(i + 1))
			log := &[]string{}
			envs[i], seen[i] = e, log
			for k := Time(1); k <= 3; k++ {
				e.After(k*lookahead, func() {
					*log = append(*log, fmt.Sprintf("%d@%v saw epoch %v", i, e.Now(), epoch))
				})
			}
		}
		envs[0].After(0, func() {}) // the first window opens at 0 and ends at 1ms
		g := NewShardGroup(lookahead, shards, envs...)
		g.AtBarrier(func(prev, now Time) { epoch = now })
		g.RunUntil(4 * lookahead)
		g.Close()
		for _, e := range envs {
			e.Close()
		}
		if got := flattenLogs(seen); got != want {
			t.Fatalf("shards=%d: events at a window limit ran before its barrier\n got: %s\nwant: %s", shards, got, want)
		}
	}
}

// TestShardGroupPanicOnAnyShard checks that a panicking process on any shard
// unwinds through RunUntil once every shard has parked, with the lowest
// panicking shard's message naming its process, and that the group and
// every environment then close cleanly, leaving no goroutine behind.
func TestShardGroupPanicOnAnyShard(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for boom := 0; boom < shards; boom++ {
			before := runtime.NumGoroutine()
			envs, _ := shardRig(shards)
			// envs[i] runs on shard i; a later shard panics at the same
			// instant, and the lower index must win.
			for _, s := range []int{boom, shards - 1} {
				name := fmt.Sprintf("boom%d", s)
				envs[s].Spawn(name, func(p *Proc) {
					p.Sleep(3 * time.Millisecond)
					panic(name)
				})
			}
			g := NewShardGroup(500*time.Microsecond, shards, envs...)
			msg := func() (msg any) {
				defer func() { msg = recover() }()
				g.RunUntil(30 * time.Millisecond)
				return nil
			}()
			if want := fmt.Sprintf(`process "boom%d" panicked`, boom); !strings.Contains(fmt.Sprint(msg), want) {
				t.Fatalf("shards=%d: recovered %v, want a message containing %s", shards, msg, want)
			}
			g.Close()
			for _, e := range envs {
				e.Close()
			}
			waitGoroutines(t, before)
		}
	}
}

// TestShardGroupClampsAndDegenerates covers the boundary shapes: more
// shards than environments clamps, and a single environment still honors
// RunUntil semantics (events at the horizon execute).
func TestShardGroupClampsAndDegenerates(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	ranAtHorizon := false
	e.After(10*time.Millisecond, func() { ranAtHorizon = true })
	g := NewShardGroup(time.Millisecond, 8, e)
	defer g.Close()
	if g.Shards() != 1 {
		t.Fatalf("Shards() = %d, want clamped to 1", g.Shards())
	}
	g.RunUntil(10 * time.Millisecond)
	if !ranAtHorizon {
		t.Fatal("event at the horizon did not execute (RunUntil bound must be inclusive)")
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("clock at %v, want 10ms", e.Now())
	}
	// An idle stretch past the last event still advances every clock.
	g.RunUntil(50 * time.Millisecond)
	if e.Now() != 50*time.Millisecond {
		t.Fatalf("idle advance left clock at %v", e.Now())
	}
}
