package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestProcessPanicIsRecoverable: a panic in a process body reaches the
// caller driving the scheduler, naming the process, and leaves the Env in a
// state Close can still tear down without leaking coroutines.
func TestProcessPanicIsRecoverable(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	ev := NewEvent(env)
	env.Spawn("bystander", func(p *Proc) { ev.Wait(p) })
	env.Spawn("short", func(p *Proc) { p.Yield() })
	env.Spawn("victim", func(p *Proc) {
		p.Sleep(ms)
		panic("boom")
	})
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		env.Run()
		return "no panic"
	}()
	if !strings.Contains(msg, `"victim"`) || !strings.Contains(msg, "boom") {
		t.Fatalf("recovered %q, want a message naming process \"victim\" and the value", msg)
	}
	if env.current != nil {
		t.Fatalf("current process %v left set after the panic", env.current)
	}
	env.Close()
	waitGoroutines(t, before)
}

// TestFinishedProcsAreReleased: the live-process set holds only processes
// whose bodies have not returned, so short-lived processes spawned all run
// long (one per SVM push) do not accumulate.
func TestFinishedProcsAreReleased(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	for i := 0; i < 10000; i++ {
		env.Spawn("short", func(p *Proc) { p.Sleep(time.Microsecond) })
		if i%100 == 99 {
			env.Run()
		}
	}
	env.Run()
	if s := env.String(); !strings.Contains(s, "procs: 0") {
		t.Fatalf("after 10k finished processes: %s, want procs: 0", s)
	}
	ev := NewEvent(env)
	env.Spawn("blocked", func(p *Proc) { ev.Wait(p) })
	env.Run()
	if s := env.String(); !strings.Contains(s, "procs: 1") {
		t.Fatalf("with one blocked process: %s, want procs: 1", s)
	}
}

// TestCloseAbortsInSpawnOrder: Close unwinds live processes in the order
// they were spawned, so their deferred cleanups run deterministically.
func TestCloseAbortsInSpawnOrder(t *testing.T) {
	env := NewEnv(1)
	ev := NewEvent(env)
	var order []int
	for i := 0; i < 8; i++ {
		env.Spawn("proc", func(p *Proc) {
			defer func() { order = append(order, i) }()
			if i%3 == 1 {
				return // finishes before Close
			}
			ev.Wait(p)
		})
	}
	env.SpawnAt(time.Hour, "unstarted", func(p *Proc) { order = append(order, -1) })
	env.RunFor(ms)
	order = order[:0]
	env.Close()
	want := []int{0, 2, 3, 5, 6}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("Close unwound %v, want %v", order, want)
	}
}

func shortBody(p *Proc) { p.Yield() }

// TestSpawnSteadyStateAllocs pins the runner pool: once a runner is idle,
// spawning and finishing a short process allocates at most the Proc
// itself — no coroutine, goroutine or closure per process.
func TestSpawnSteadyStateAllocs(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	env.Spawn("warm", shortBody)
	env.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		env.Spawn("short", shortBody)
		env.Run()
	})
	if allocs > 1 {
		t.Fatalf("%.1f allocs per spawned process, want <= 1 (the Proc)", allocs)
	}
}

// TestStaleWakeupSparesRunnerTenant: a wakeup still queued for a finished
// process must be dropped, not delivered to the process now running on the
// finished one's recycled runner.
func TestStaleWakeupSparesRunnerTenant(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var first *runner
	a := env.Spawn("a", func(p *Proc) { first = p.runner })
	env.Run()
	env.schedule(env.now+ms, a, nil) // stale: a has finished
	ev := NewEvent(env)
	passed := false
	b := env.Spawn("b", func(p *Proc) {
		ev.Wait(p)
		passed = true
	})
	env.RunFor(2 * ms)
	if b.runner != first {
		t.Fatal("b did not reuse a's runner")
	}
	if passed {
		t.Fatal("stale wakeup for a resumed b past its wait")
	}
	ev.Signal()
	env.Run()
	if !passed {
		t.Fatal("b did not resume after the signal")
	}
}

// TestAbortUnstartedOnReusedRunner: Close with an idle reused runner in the
// pool and a process whose start event is still queued runs none of that
// process's body, and frees the runner.
func TestAbortUnstartedOnReusedRunner(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	env.Spawn("a", shortBody)
	env.Run()
	if env.runnerFree == nil {
		t.Fatal("no idle runner after a finished")
	}
	ran := false
	p := env.SpawnAt(time.Hour, "late", func(p *Proc) { ran = true })
	env.RunFor(ms)
	env.Close()
	if ran {
		t.Fatal("aborted unstarted process ran its body")
	}
	if p.state != procDone {
		t.Fatal("aborted unstarted process not marked done")
	}
	waitGoroutines(t, before)
}

// TestQueueHandoffAllocFree pins a steady-state Put→Get handoff between two
// processes at zero allocations: the queue pops by head index and reuses its
// backing array and wait lists.
func TestQueueHandoffAllocFree(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	q := NewQueue[int](env, 0)
	gate := NewQueue[int](env, 0)
	env.Spawn("producer", func(p *Proc) {
		for {
			q.Put(p, gate.Get(p))
		}
	})
	env.Spawn("consumer", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	gate.TryPut(0)
	env.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		gate.TryPut(0)
		env.Run()
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per queue handoff, want 0", allocs)
	}
}

// TestEventWaitSignalAllocFree pins a single-waiter Wait/Signal at zero
// allocations beyond the Event itself: the first waiter registers into the
// event's inline array and the waiter record comes from the free list.
func TestEventWaitSignalAllocFree(t *testing.T) {
	env := NewEnv(1)
	defer env.Close()
	var ev Event
	gate := NewQueue[int](env, 0)
	env.Spawn("waiter", func(p *Proc) {
		for {
			gate.Get(p)
			ev.Wait(p)
		}
	})
	round := func() {
		ev.Init(env)
		gate.TryPut(0)
		env.Run() // the waiter parks on ev
		ev.Signal()
		env.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("%.1f allocs per Event Wait/Signal, want 0", allocs)
	}
}
