// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives a virtual clock and a set of processes. A process is an
// ordinary Go function executing as a coroutine (iter.Pull) on the thread
// that drives the scheduler: resuming a process is a direct coroutine
// switch into it, and a process blocks by yielding back, so exactly one
// process runs at any instant and the Go scheduler's run queue is never
// involved. All wakeups flow through a single event queue ordered by
// (time, sequence). Runs are therefore bit-reproducible for a given seed
// regardless of GOMAXPROCS. Idle coroutines are pooled per environment and
// reused by later processes; Close stops them all.
//
// Processes block with the primitives in this package: Sleep, Event (one-shot
// broadcast), Queue (FIFO channel), and Semaphore (counted resource). These
// are the building blocks for the hardware, transport, and guest-OS models in
// the rest of the repository.
//
// Time is modeled as time.Duration elapsed since the start of the simulation.
//
// The kernel itself reproduces nothing from the paper — it is the substrate
// that makes the reproduction's claims checkable: the §2.3 measurement study
// and the §5 evaluation both replay on it bit for bit. DESIGN.md §5
// documents the scheduler internals (event queue, process coroutines,
// process lifecycle).
//
// shard.go adds the conservative parallel shard runtime (DESIGN.md §12): a
// ShardGroup runs several Envs on worker goroutines in lockstep windows one
// arbitration epoch wide, with barrier hooks folding shared state between
// windows. The determinism contract carries over — every shard observes the
// same (time, sequence) order at every shard count, so multi-guest runs are
// byte-identical to their serial interleaving.
package sim
