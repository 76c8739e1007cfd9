package sim

// Queue is a FIFO channel between processes. A zero capacity means
// unbounded; otherwise Put blocks while the queue is full. Wakeups are FIFO
// so contention resolves deterministically.
//
// Items pop by a head index rather than by reslicing, and the live items
// slide back to the front only when an append would otherwise grow the
// slice, so a queue in steady state reuses one backing array and allocates
// nothing per Put/Get.
type Queue[T any] struct {
	env        *Env
	items      []T // items[head:] are buffered
	head       int
	cap        int
	getWaiters []*waiter
	putWaiters []*waiter
}

// NewQueue returns a queue bound to env. capacity <= 0 means unbounded.
func NewQueue[T any](env *Env, capacity int) *Queue[T] {
	return &Queue[T]{env: env, cap: capacity}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

func (q *Queue[T]) full() bool { return q.cap > 0 && q.Len() >= q.cap }

// push appends v, first compacting the live items to the front when the
// backing array is full but has a consumed prefix.
func (q *Queue[T]) push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, v)
}

// pop removes the head item; the queue must be non-empty. The vacated slot
// is zeroed so the queue pins no popped item.
func (q *Queue[T]) pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// wakeOne wakes the first waiter of ws that has not been woken yet and
// drops it, and every waiter before it, from the list in place.
func (q *Queue[T]) wakeOne(ws *[]*waiter) {
	list := *ws
	for i, w := range list {
		if !w.woke {
			w.woke = true
			q.env.schedule(q.env.now, w.p, nil)
			n := copy(list, list[i+1:])
			clear(list[n:])
			*ws = list[:n]
			return
		}
	}
	clear(list)
	*ws = list[:0]
}

// Put appends v, blocking while a bounded queue is full.
func (q *Queue[T]) Put(p *Proc, v T) {
	for q.full() {
		w := q.env.getWaiter(p)
		q.putWaiters = append(q.putWaiters, w)
		p.park()
		q.env.putWaiter(w) // woken waiters have left the wait list
	}
	q.push(v)
	q.wakeOne(&q.getWaiters)
}

// TryPut appends v without blocking, reporting whether it fit.
func (q *Queue[T]) TryPut(v T) bool {
	if q.full() {
		return false
	}
	q.push(v)
	q.wakeOne(&q.getWaiters)
	return true
}

// Get removes and returns the head item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.Len() == 0 {
		w := q.env.getWaiter(p)
		q.getWaiters = append(q.getWaiters, w)
		p.park()
		q.env.putWaiter(w) // woken waiters have left the wait list
	}
	v := q.pop()
	q.wakeOne(&q.putWaiters)
	return v
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	v := q.pop()
	q.wakeOne(&q.putWaiters)
	return v, true
}
