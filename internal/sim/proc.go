//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

type procState int

const (
	procReady procState = iota
	procDone
)

// procKilled is the panic value used to unwind an aborted process.
type procKilled struct{}

// Proc is a simulation process: a sequential activity over virtual time.
// All Proc methods must be called from the process's own function.
type Proc struct {
	env    *Env
	name   string
	fn     func(p *Proc) // body, cleared once a runner starts it
	state  procState
	runner *runner // coroutine executing the body; nil before start and after finish

	prev, next *Proc // Env's live list, in spawn order
}

// runner is a pooled process coroutine. Its iterator body loops: run the
// current tenant's function to completion, return to the Env's free list,
// then yield until the next tenant's first resume. Switching into a
// process is therefore one coroutine switch (next), and switching out is
// one yield; no goroutine is created per process in steady state.
type runner struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	proc  *Proc   // current tenant
	free  *runner // free-list link
}

func newRunner(e *Env) *runner {
	r := &runner{}
	r.next, r.stop = iter.Pull(func(yield func(struct{}) bool) {
		r.yield = yield
		for r.run() {
			r.free = e.runnerFree
			e.runnerFree = r
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return r
}

// run executes the current tenant's body and retires the tenant. It
// reports whether the runner may serve another process: false after an
// abort, whose stop has already finished the coroutine. A panic other than
// an abort propagates, naming the process, out of the resume that reached
// it; the runner dies with it.
func (r *runner) run() (reusable bool) {
	p := r.proc
	defer func() {
		r.proc = nil
		p.env.retire(p)
		if x := recover(); x != nil {
			if x == any(procKilled{}) {
				return
			}
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, x))
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
	return true
}

// Spawn starts fn as a new process at the current instant. The process
// begins executing when the scheduler reaches its start event.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt starts fn as a new process at absolute time at.
func (e *Env) SpawnAt(at Time, name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn on closed Env")
	}
	p := &Proc{env: e, name: name, fn: fn, prev: e.procTail}
	if e.procTail != nil {
		e.procTail.next = p
	} else {
		e.procHead = p
	}
	e.procTail = p
	e.nprocs++
	e.schedule(at, p, nil)
	return p
}

// retire marks p finished and unlinks it from the live list, so a
// finished process costs nothing until Close and any wakeup still queued
// for it is dropped by resume.
func (e *Env) retire(p *Proc) {
	p.state = procDone
	p.runner = nil
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.procHead = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		e.procTail = p.prev
	}
	p.prev, p.next = nil, nil
	e.nprocs--
}

// resume hands control to p until it parks again or terminates. A process
// takes a runner on its first resume. A panic escaping p's body propagates
// to the caller with the scheduler's state restored, so the Env can still
// be closed.
func (e *Env) resume(p *Proc) {
	if p.state == procDone {
		return // stale wakeup for a finished process
	}
	r := p.runner
	if r == nil {
		if r = e.runnerFree; r != nil {
			e.runnerFree = r.free
			r.free = nil
		} else {
			r = newRunner(e)
		}
		r.proc = p
		p.runner = r
	}
	prev := e.current
	e.current = p
	defer func() { e.current = prev }()
	r.next()
}

// abort unwinds p without running any more of its body: a started process
// panics procKilled out of its parked yield, running its defers; one that
// never started is simply retired.
func (e *Env) abort(p *Proc) {
	if p.runner == nil {
		e.retire(p)
		return
	}
	prev := e.current
	e.current = p
	defer func() { e.current = prev }()
	p.runner.stop()
}

// park yields control to the scheduler and blocks until the next resume.
// Every blocking primitive funnels through park after registering a wakeup.
func (p *Proc) park() {
	if !p.runner.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// Env returns the environment this process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Sleep blocks the process for d of virtual time. Negative durations sleep
// zero time but still yield, preserving FIFO fairness at the same instant.
func (p *Proc) Sleep(d Time) {
	if p.env.currentProc() != p {
		panic("sim: Sleep called from a different process")
	}
	p.env.schedule(p.env.now+d, p, nil)
	p.park()
}

// Yield cedes the processor until all other events at the current instant
// have run.
func (p *Proc) Yield() { p.Sleep(0) }

func (p *Proc) String() string { return "proc:" + p.name }
