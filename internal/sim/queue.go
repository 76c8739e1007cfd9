package sim

// Queue is a FIFO channel between processes. A zero capacity means
// unbounded; otherwise Put blocks while the queue is full. Wakeups are FIFO
// so contention resolves deterministically.
type Queue[T any] struct {
	env        *Env
	items      []T
	cap        int
	getWaiters []*waiter
	putWaiters []*waiter
}

// NewQueue returns a queue bound to env. capacity <= 0 means unbounded.
func NewQueue[T any](env *Env, capacity int) *Queue[T] {
	return &Queue[T]{env: env, cap: capacity}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) }

func (q *Queue[T]) wakeOne(ws *[]*waiter) {
	for i, w := range *ws {
		if !w.woke {
			w.woke = true
			q.env.schedule(q.env.now, w.p, nil)
			*ws = (*ws)[i+1:]
			return
		}
	}
	*ws = nil
}

// Put appends v, blocking while a bounded queue is full.
func (q *Queue[T]) Put(p *Proc, v T) {
	for q.cap > 0 && len(q.items) >= q.cap {
		w := q.env.getWaiter(p)
		q.putWaiters = append(q.putWaiters, w)
		p.park()
		q.env.putWaiter(w) // woken waiters have left the wait list
	}
	q.items = append(q.items, v)
	q.wakeOne(&q.getWaiters)
}

// TryPut appends v without blocking, reporting whether it fit.
func (q *Queue[T]) TryPut(v T) bool {
	if q.cap > 0 && len(q.items) >= q.cap {
		return false
	}
	q.items = append(q.items, v)
	q.wakeOne(&q.getWaiters)
	return true
}

// Get removes and returns the head item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	for len(q.items) == 0 {
		w := q.env.getWaiter(p)
		q.getWaiters = append(q.getWaiters, w)
		p.park()
		q.env.putWaiter(w) // woken waiters have left the wait list
	}
	v := q.items[0]
	q.items = q.items[1:]
	q.wakeOne(&q.putWaiters)
	return v
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	q.wakeOne(&q.putWaiters)
	return v, true
}
