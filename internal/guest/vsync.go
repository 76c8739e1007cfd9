// Package guest models the guest mobile OS mechanisms that shape SVM
// traffic: the VSync clock that paces compositors and render loops, and the
// BufferQueue producer/consumer pools that pipelines use for buffering.
// These are the OS-level synchronization mechanisms that create the slack
// intervals (§2.3) the prefetch engine hides coherence under — the paper
// notes they are hardware-independent, which is why slack distributions look
// alike on emulators and physical devices.
//
// Both mechanisms are deterministic simulation processes: VSync ticks and
// buffer hand-offs are scheduled in virtual time, so equal seeds produce
// identical frame timelines.
package guest

import (
	"time"

	"repro/internal/sim"
)

// VSync is a periodic display-synchronization clock (Android's VSYNC).
//
// Tick k is signaled on evs[(k-1)%2]. An event is re-armed for reuse one
// full period after it fired, and every waiter it woke resumed at the
// instant it fired, so by then nothing refers to it: the clock allocates
// nothing per tick.
type VSync struct {
	tick int64
	evs  [2]sim.Event
}

// NewVSync starts a VSync clock with the given period (16.67 ms for 60 Hz).
// The first tick fires one period from now.
func NewVSync(env *sim.Env, period time.Duration) *VSync {
	v := &VSync{}
	v.evs[0].Init(env)
	var fire func()
	fire = func() {
		cur := v.next()
		v.tick++
		v.next().Init(env)
		cur.Signal()
		env.After(period, fire)
	}
	env.After(period, fire)
	return v
}

// next returns the event the coming tick signals.
func (v *VSync) next() *sim.Event { return &v.evs[v.tick&1] }

// Tick returns the number of ticks elapsed.
func (v *VSync) Tick() int64 { return v.tick }

// Wait blocks p until the next VSync tick and returns the tick time.
func (v *VSync) Wait(p *sim.Proc) time.Duration {
	v.next().Wait(p)
	return p.Now()
}
