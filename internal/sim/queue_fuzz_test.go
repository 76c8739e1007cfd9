package sim

import (
	"fmt"
	"slices"
	"testing"
)

// queueModel is the reference semantics of Queue: a plain-slice FIFO of
// items, FIFO lists of parked getters and putters, and the FIFO of pending
// process resumptions that the scheduler runs one per Step. Each task is a
// process body run from its start or from its last park until it parks
// again or finishes, exactly the granularity of one Env.Step.
type queueModel struct {
	cap     int
	items   []int
	getters []int          // parked getter ids
	putters []modelPutter  // parked putters
	runq    []modelTask    // pending resumptions, in scheduling order
	log     []string       // completed operations, in completion order
	procs   map[int]string // proc id -> kind ("get" or "put")
	vals    map[int]int    // putter id -> its value
}

type modelPutter struct{ id, v int }

type modelTask struct{ id int }

func (m *queueModel) full() bool { return m.cap > 0 && len(m.items) >= m.cap }

// wakeGetter and wakePutter mirror Queue.wakeOne: the first parked waiter
// leaves its list and is scheduled to resume.
func (m *queueModel) wakeGetter() {
	if len(m.getters) > 0 {
		m.runq = append(m.runq, modelTask{m.getters[0]})
		m.getters = m.getters[1:]
	}
}

func (m *queueModel) wakePutter() {
	if len(m.putters) > 0 {
		m.runq = append(m.runq, modelTask{m.putters[0].id})
		m.putters = m.putters[1:]
	}
}

func (m *queueModel) tryPut(v int) bool {
	if m.full() {
		return false
	}
	m.items = append(m.items, v)
	m.wakeGetter()
	return true
}

func (m *queueModel) tryGet() (int, bool) {
	if len(m.items) == 0 {
		return 0, false
	}
	v := m.items[0]
	m.items = m.items[1:]
	m.wakePutter()
	return v, true
}

// step runs the head task: the process re-checks its condition, parks again
// at the tail of its wait list, or completes its operation.
func (m *queueModel) step() {
	id := m.runq[0].id
	m.runq = m.runq[1:]
	switch m.procs[id] {
	case "get":
		v, ok := m.tryGet()
		if !ok {
			m.getters = append(m.getters, id)
			return
		}
		m.log = append(m.log, fmt.Sprintf("g%d<-%d", id, v))
	case "put":
		v := m.vals[id]
		if !m.tryPut(v) {
			m.putters = append(m.putters, modelPutter{id, v})
			return
		}
		m.log = append(m.log, fmt.Sprintf("p%d->%d", id, v))
	}
}

// FuzzQueue drives Queue's Put/TryPut/Get/TryGet from many processes at a
// random capacity (0 = unbounded) and checks it against queueModel after
// every step: the items each getter receives, the order operations
// complete in, Len, and the number of woken processes still pending.
//
// Op bytes: 0 spawns a getter, 1 spawns a putter, 2 TryPuts, 3 TryGets
// (both from outside process context), 4-6 run one scheduler step and 7
// runs until no process is runnable. Values are put in increasing order,
// so any misordering or duplication shows in the log.
func FuzzQueue(f *testing.F) {
	f.Add(uint8(0), []byte{2, 2, 2, 2, 3, 2, 2, 3, 3, 2, 2, 2, 3, 3, 3, 3, 3, 3})
	f.Add(uint8(1), []byte{0, 0, 1, 1, 1, 7, 3, 4, 4, 0, 7, 2, 2, 3})
	f.Add(uint8(2), []byte{1, 1, 1, 1, 7, 0, 4, 2, 0, 3, 7, 0, 0, 0, 7, 2, 2, 2, 7})
	f.Add(uint8(3), []byte{0, 0, 0, 2, 3, 4, 4, 2, 2, 1, 1, 1, 1, 1, 7, 3, 3, 4, 7, 0, 0, 7})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		const maxOps = 128
		if len(ops) > maxOps {
			ops = ops[:maxOps]
		}
		env := NewEnv(1)
		defer env.Close()
		m := &queueModel{cap: int(capacity % 5), procs: map[int]string{}, vals: map[int]int{}}
		q := NewQueue[int](env, m.cap)
		var log []string
		nextID, nextVal := 0, 0
		step := func() {
			if len(m.runq) == 0 {
				return
			}
			if !env.Step() {
				t.Fatalf("Step found nothing to run, model has %d pending", len(m.runq))
			}
			m.step()
		}
		for i, op := range ops {
			switch op % 8 {
			case 0:
				id := nextID
				nextID++
				m.procs[id] = "get"
				m.runq = append(m.runq, modelTask{id})
				env.Spawn("getter", func(p *Proc) {
					v := q.Get(p)
					log = append(log, fmt.Sprintf("g%d<-%d", id, v))
				})
			case 1:
				id, v := nextID, nextVal
				nextID++
				nextVal++
				m.procs[id] = "put"
				m.vals[id] = v
				m.runq = append(m.runq, modelTask{id})
				env.Spawn("putter", func(p *Proc) {
					q.Put(p, v)
					log = append(log, fmt.Sprintf("p%d->%d", id, v))
				})
			case 2:
				v := nextVal
				nextVal++
				if got, want := q.TryPut(v), m.tryPut(v); got != want {
					t.Fatalf("op %d: TryPut(%d) = %v, model %v", i, v, got, want)
				}
			case 3:
				v, ok := q.TryGet()
				mv, mok := m.tryGet()
				if v != mv || ok != mok {
					t.Fatalf("op %d: TryGet = (%d, %v), model (%d, %v)", i, v, ok, mv, mok)
				}
			case 4, 5, 6:
				step()
			case 7:
				for len(m.runq) > 0 {
					step()
				}
			}
			if q.Len() != len(m.items) {
				t.Fatalf("op %d: Len = %d, model %d (items %v)", i, q.Len(), len(m.items), m.items)
			}
			if env.PendingEvents() != len(m.runq) {
				t.Fatalf("op %d: %d pending events, model %d runnable", i, env.PendingEvents(), len(m.runq))
			}
			if !slices.Equal(log, m.log) {
				t.Fatalf("op %d: completions\n  got   %v\n  model %v", i, log, m.log)
			}
		}
		// Drain what the items can satisfy and check the buffered order.
		for len(m.runq) > 0 {
			step()
		}
		for len(m.items) > 0 {
			v, ok := q.TryGet()
			mv, _ := m.tryGet()
			if !ok || v != mv {
				t.Fatalf("drain: TryGet = (%d, %v), model %d", v, ok, mv)
			}
			for len(m.runq) > 0 {
				step()
			}
		}
		if !slices.Equal(log, m.log) {
			t.Fatalf("drain: completions\n  got   %v\n  model %v", log, m.log)
		}
	})
}
