package sim

// Semaphore is a counted resource with strict FIFO grant order, which keeps
// contention deterministic and starvation-free.
type Semaphore struct {
	env     *Env
	count   int64
	cap     int64
	waiters []*semWaiter
}

type semWaiter struct {
	p       *Proc
	need    int64
	granted bool
}

// NewSemaphore returns a semaphore with the given capacity, fully available.
func NewSemaphore(env *Env, capacity int64) *Semaphore {
	if capacity <= 0 {
		panic("sim: semaphore capacity must be positive")
	}
	return &Semaphore{env: env, count: capacity, cap: capacity}
}

// Available returns the currently free units.
func (s *Semaphore) Available() int64 { return s.count }

// Capacity returns the total units.
func (s *Semaphore) Capacity() int64 { return s.cap }

// InUse returns the units currently held.
func (s *Semaphore) InUse() int64 { return s.cap - s.count }

// Acquire blocks p until n units are granted. n must not exceed capacity.
func (s *Semaphore) Acquire(p *Proc, n int64) {
	if n > s.cap {
		panic("sim: acquire exceeds semaphore capacity")
	}
	if len(s.waiters) == 0 && s.count >= n {
		s.count -= n
		return
	}
	w := &semWaiter{p: p, need: n}
	s.waiters = append(s.waiters, w)
	for !w.granted {
		p.park()
	}
}

// Release returns n units and grants queued waiters in FIFO order.
func (s *Semaphore) Release(n int64) {
	s.count += n
	if s.count > s.cap {
		panic("sim: semaphore released above capacity")
	}
	s.grant()
}

func (s *Semaphore) grant() {
	for len(s.waiters) > 0 {
		w := s.waiters[0]
		if s.count < w.need {
			return
		}
		s.count -= w.need
		w.granted = true
		s.waiters = s.waiters[1:]
		s.env.schedule(s.env.now, w.p, nil)
	}
}
