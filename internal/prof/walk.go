package prof

import "time"

// maxDepth bounds the dependency descent. Real chains in the emulator are
// a handful of hops (frame → display op → gpu op → decode op → push); the
// cap only guards against a pathological instrumentation cycle. §5.4's
// attributions are insensitive to it. Determinism is unaffected: the walk
// is a pure function of the recorded graph.
const maxDepth = 64

// walker attributes one frame's critical path. It holds the folded-stack
// prefix (node names from the frame down to the node being walked) and
// the per-frame component tally.
type walker struct {
	rep   *Report
	frame map[string]time.Duration
	stack []string
}

// walk attributes the critical path of n within (floor, upTo], scanning
// segments backward with a cursor. Self segments charge their component;
// wait segments charge the completion→wakeup residue to the wait
// component and descend into the dependency; gaps between segments charge
// "untracked"; time before the first segment charges the node's base
// component. Returns the earliest instant reached, so a waiting parent
// resumes its own scan below the dependency's start (work overlapped with
// the dependency is off the critical path and skipped).
func (w *walker) walk(n *Node, floor, upTo time.Duration) time.Duration {
	cursor := upTo
	for i := len(n.segs) - 1; i >= 0 && cursor > floor; i-- {
		s := &n.segs[i]
		if s.start >= cursor {
			continue // fully overlapped by a later dependency descent
		}
		segEnd := s.end
		if segEnd > cursor {
			segEnd = cursor
		}
		if segEnd <= floor {
			break
		}
		if gap := cursor - segEnd; gap > 0 {
			w.charge("untracked", gap)
		}
		segStart := s.start
		if segStart < floor {
			segStart = floor
		}
		dep := s.dep
		if dep == nil || !dep.done || dep.end <= s.start || len(w.stack) >= maxDepth {
			w.charge(s.comp, segEnd-segStart)
			cursor = segStart
			continue
		}
		depEnd := dep.end
		if depEnd > segEnd {
			depEnd = segEnd
		}
		if residual := segEnd - depEnd; residual > 0 {
			// Completion-to-wakeup latency (IRQ delivery, batch
			// notification) charges to the wait component itself.
			w.charge(s.comp, residual)
		}
		if depEnd <= floor {
			cursor = floor
			break
		}
		w.stack = append(w.stack, dep.Name)
		depStart := w.walk(dep, floor, depEnd)
		w.stack = w.stack[:len(w.stack)-1]
		cursor = segStart
		if depStart < cursor {
			cursor = depStart
		}
	}
	if cursor > floor {
		base := n.start
		if base < floor {
			base = floor
		}
		if cursor > base {
			w.charge(n.base, cursor-base)
			cursor = base
		}
	}
	return cursor
}

// charge books d against comp at the current stack position: into the
// global component table, the per-frame tally, and the folded-stack map.
func (w *walker) charge(comp string, d time.Duration) {
	if d <= 0 {
		return
	}
	w.rep.Comps[comp] += d
	w.frame[comp] += d
	w.rep.Folded[w.rep.foldedKey(w.stack, comp)] += d
}
