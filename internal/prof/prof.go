// Package prof is the virtual-time critical-path profiler behind the §5.4
// performance-breakdown and Fig. 16 demand-fetch attribution runs.
//
// While the tracer (internal/obs) records flat spans, prof records the
// wait-for graph: every frame and every device op is a Node whose segments
// are either self work (a named component consumed virtual time) or waits
// on another Node (fence wait, buffer acquire, prefetch in flight). At
// frame completion the profiler walks the longest dependent chain backward
// from the completion instant and attributes every nanosecond of
// end-to-end latency to a component — virtio kick, link sync-copy, device
// exec, thermal throttle, coalesce window, and so on.
//
// Determinism contract: the profiler is a pure observer of the
// single-threaded simulation. It never sleeps, spawns, or consumes
// randomness, so profiler-on and profiler-off runs produce byte-identical
// simulation results, and equal seeds produce byte-identical folded-stack
// exports. Every method is safe on a nil *Profiler and the disabled path
// allocates nothing, mirroring the obs.Tracer contract.
package prof

import "time"

// Node is one vertex of the wait-for graph: a frame, a device op, or an
// asynchronous SVM push. Segments are appended in virtual-time order by
// the instrumentation hooks; the critical-path walk reads them backward.
type Node struct {
	// Name labels the node in folded stacks ("frame", "gpu:read", ...).
	Name string
	// base is the component charged to time before the first segment
	// (e.g. "ring:queued" for a dispatched-but-not-picked-up op).
	base  string
	start time.Duration
	end   time.Duration
	done  bool
	segs  []seg
}

// seg is a half-open interval of a node's lifetime. dep == nil means the
// node itself consumed the time (charged to comp); dep != nil means the
// node was waiting on dep, and the walk descends into it.
type seg struct {
	comp  string
	start time.Duration
	end   time.Duration
	dep   *Node
}

// classScope marks a span of one execution context (e.g. "demand-fetch")
// during which every self charge is also accumulated per operation class.
type classScope struct {
	class string
	start time.Duration
}

// Profiler accumulates wait-for graphs and their walked attributions. The
// zero value is not useful; construct with New. A nil *Profiler is the
// disabled profiler: every method is a no-op that allocates nothing.
type Profiler struct {
	now func() time.Duration

	cur        map[any]*Node
	class      map[any]*classScope
	completing *Node

	frameSeq int
	rep      *Report
}

// New returns an enabled profiler with an empty report. Call SetNow (done
// by sim.Env.SetProfiler) before recording anything.
func New() *Profiler {
	return &Profiler{
		cur:   make(map[any]*Node),
		class: make(map[any]*classScope),
		rep:   newReport(),
	}
}

// SetNow injects the virtual clock. prof cannot import the scheduler
// (sim imports prof), so the clock arrives as a closure.
func (pf *Profiler) SetNow(fn func() time.Duration) {
	if pf == nil {
		return
	}
	pf.now = fn
}

func (pf *Profiler) clock() time.Duration {
	if pf.now == nil {
		return 0
	}
	return pf.now()
}

// NewNode opens a node starting now. base names the component charged to
// any leading time not covered by an explicit segment.
func (pf *Profiler) NewNode(name, base string) *Node {
	if pf == nil {
		return nil
	}
	return &Node{Name: name, base: base, start: pf.clock()}
}

// Bind makes n the current node for key (one key per execution context —
// instrumentation uses the *sim.Proc pointer, which boxes without
// allocating). Binding nil unbinds. Returns the previously bound node.
func (pf *Profiler) Bind(key any, n *Node) *Node {
	if pf == nil {
		return nil
	}
	prev := pf.cur[key]
	if n == nil {
		delete(pf.cur, key)
	} else {
		pf.cur[key] = n
	}
	return prev
}

// Charge records self work [from, now] for comp on key's current node
// (and on key's active class scope, if any).
func (pf *Profiler) Charge(key any, comp string, from time.Duration) {
	if pf == nil {
		return
	}
	pf.ChargeSpan(key, comp, from, pf.clock())
}

// ChargeSpan records self work [from, to] for comp. Used when the charged
// interval is not "until now" (e.g. splitting exec from throttle stretch).
func (pf *Profiler) ChargeSpan(key any, comp string, from, to time.Duration) {
	if pf == nil || to <= from {
		return
	}
	if n := pf.cur[key]; n != nil && !n.done {
		n.segs = append(n.segs, seg{comp: comp, start: from, end: to})
	}
	if cs := pf.class[key]; cs != nil {
		pf.rep.chargeClass(cs.class, comp, to-from)
	}
}

// Wait records that key's current node waited [from, now] on dep, charged
// to comp for any residue the walk cannot attribute inside dep.
func (pf *Profiler) Wait(key any, comp string, from time.Duration, dep *Node) {
	if pf == nil {
		return
	}
	to := pf.clock()
	if to <= from {
		return
	}
	if n := pf.cur[key]; n != nil && !n.done {
		n.segs = append(n.segs, seg{comp: comp, start: from, end: to, dep: dep})
	}
}

// Finish closes a node at the current instant. Idempotent: the first call
// wins, so an op node can be finished eagerly before its completion
// callback runs and again by the host loop epilogue.
func (pf *Profiler) Finish(n *Node) {
	if pf == nil || n == nil || n.done {
		return
	}
	n.end = pf.clock()
	n.done = true
}

// BeginClass opens an operation-class scope (e.g. "demand-fetch") for
// key: until EndClass, every self charge on key also accumulates into the
// per-class attribution table. Class scopes do not nest; the innermost
// wins, which matches the single class site in the SVM protocol layer.
func (pf *Profiler) BeginClass(key any, class string) {
	if pf == nil {
		return
	}
	pf.class[key] = &classScope{class: class, start: pf.clock()}
}

// EndClass closes key's class scope, adding the elapsed wall (virtual)
// time to the class total against which component coverage is computed.
func (pf *Profiler) EndClass(key any) {
	if pf == nil {
		return
	}
	cs := pf.class[key]
	if cs == nil {
		return
	}
	delete(pf.class, key)
	pf.rep.endClass(cs.class, pf.clock()-cs.start)
}

// SetCompleting marks the op node whose completion callback is currently
// executing, so FrameDone — which runs inside that callback, before the
// submitting side regains control — can record it as the frame's final
// dependency. Cleared by passing nil.
func (pf *Profiler) SetCompleting(n *Node) {
	if pf == nil {
		return
	}
	pf.completing = n
}

// FrameDone completes a frame at instant `at`: it appends the final wait
// on the currently-completing op (the display op whose callback invoked
// us), finishes the node, walks its critical path, and folds the result
// into the report.
func (pf *Profiler) FrameDone(frame *Node, at time.Duration) {
	if pf == nil || frame == nil || frame.done {
		return
	}
	last := frame.start
	if k := len(frame.segs); k > 0 {
		last = frame.segs[k-1].end
	}
	if pf.completing != nil && at > last {
		frame.segs = append(frame.segs, seg{comp: "present:wait", start: last, end: at, dep: pf.completing})
	}
	frame.end = at
	frame.done = true
	pf.frameSeq++
	pf.rep.recordFrame(pf.frameSeq, frame)
}

// Report returns the accumulated attribution report. The caller may keep
// using the profiler; the report is live state, not a snapshot.
func (pf *Profiler) Report() *Report {
	if pf == nil {
		return nil
	}
	return pf.rep
}
