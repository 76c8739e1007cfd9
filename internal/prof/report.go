package prof

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// topK is how many slowest frames keep their full critical-path breakdown
// in the report. Merging reports re-sorts and re-truncates, so the value
// is a cap, not a per-session quota.
const topK = 5

// Report is the walked attribution state: global and per-class component
// tables, the folded-stack map, and the top-K slowest frames. Reports
// from per-session profilers merge deterministically in job order.
type Report struct {
	Frames  int
	Total   time.Duration // summed critical-path window of all frames
	Comps   map[string]time.Duration
	Classes map[string]*ClassStat
	Folded  map[string]time.Duration
	Top     []FrameRecord

	// foldKeys interns folded-stack keys and keyBuf is the buffer they are
	// built in, so charging a stack already seen allocates nothing.
	foldKeys map[string]string
	keyBuf   []byte
}

// ClassStat aggregates one operation class (e.g. "demand-fetch"): how
// often it ran, its total virtual elapsed time, and which components the
// profiler charged inside it. Coverage = sum(Comps)/Total.
type ClassStat struct {
	Count int
	Total time.Duration
	Comps map[string]time.Duration
}

// FrameRecord is one completed frame's walked critical path.
type FrameRecord struct {
	Label      string
	Start, End time.Duration
	Comps      []CompDur // sorted by duration desc, name asc
}

// CompDur is one component's share of a frame's critical path.
type CompDur struct {
	Comp string
	Dur  time.Duration
}

// Latency is the frame's end-to-end critical-path window.
func (fr FrameRecord) Latency() time.Duration { return fr.End - fr.Start }

func newReport() *Report {
	return &Report{
		Comps:   make(map[string]time.Duration),
		Classes: make(map[string]*ClassStat),
		Folded:  make(map[string]time.Duration),

		foldKeys: make(map[string]string),
	}
}

// foldedKey returns the folded-stack key "s0;s1;...;comp", interned.
func (r *Report) foldedKey(stack []string, comp string) string {
	buf := r.keyBuf[:0]
	for _, s := range stack {
		buf = append(buf, s...)
		buf = append(buf, ';')
	}
	buf = append(buf, comp...)
	r.keyBuf = buf
	if k, ok := r.foldKeys[string(buf)]; ok {
		return k
	}
	k := string(buf)
	r.foldKeys[k] = k
	return k
}

func (r *Report) chargeClass(class, comp string, d time.Duration) {
	cs := r.Classes[class]
	if cs == nil {
		cs = &ClassStat{Comps: make(map[string]time.Duration)}
		r.Classes[class] = cs
	}
	cs.Comps[comp] += d
}

func (r *Report) endClass(class string, elapsed time.Duration) {
	cs := r.Classes[class]
	if cs == nil {
		cs = &ClassStat{Comps: make(map[string]time.Duration)}
		r.Classes[class] = cs
	}
	cs.Count++
	cs.Total += elapsed
}

// recordFrame walks a completed frame and folds it into the report.
func (r *Report) recordFrame(seq int, frame *Node) {
	w := &walker{rep: r, frame: make(map[string]time.Duration), stack: []string{frame.Name}}
	w.walk(frame, frame.start, frame.end)
	r.Frames++
	r.Total += frame.end - frame.start
	fr := FrameRecord{
		Label: fmt.Sprintf("frame#%d", seq),
		Start: frame.start,
		End:   frame.end,
		Comps: sortedComps(w.frame),
	}
	r.Top = append(r.Top, fr)
	r.sortTop()
	if len(r.Top) > topK {
		r.Top = r.Top[:topK]
	}
}

func (r *Report) sortTop() {
	sort.SliceStable(r.Top, func(i, j int) bool {
		li, lj := r.Top[i].Latency(), r.Top[j].Latency()
		if li != lj {
			return li > lj
		}
		if r.Top[i].Start != r.Top[j].Start {
			return r.Top[i].Start < r.Top[j].Start
		}
		return r.Top[i].Label < r.Top[j].Label
	})
}

// Retag prefixes the top-frame labels with a session tag so merged
// reports keep frames attributable to their (category, app) cell.
func (r *Report) Retag(tag string) {
	if r == nil {
		return
	}
	for i := range r.Top {
		r.Top[i].Label = tag + "/" + r.Top[i].Label
	}
}

// Merge folds o into r. Callers merge per-session reports in a fixed job
// order, so the result is independent of worker count.
func (r *Report) Merge(o *Report) {
	if r == nil || o == nil {
		return
	}
	r.Frames += o.Frames
	r.Total += o.Total
	for k, v := range o.Comps {
		r.Comps[k] += v
	}
	for k, v := range o.Folded {
		r.Folded[k] += v
	}
	for class, ocs := range o.Classes {
		cs := r.Classes[class]
		if cs == nil {
			cs = &ClassStat{Comps: make(map[string]time.Duration)}
			r.Classes[class] = cs
		}
		cs.Count += ocs.Count
		cs.Total += ocs.Total
		for k, v := range ocs.Comps {
			cs.Comps[k] += v
		}
	}
	r.Top = append(r.Top, o.Top...)
	r.sortTop()
	if len(r.Top) > topK {
		r.Top = r.Top[:topK]
	}
}

// ClassCoverage returns the fraction of a class's elapsed time that was
// attributed to named components (0 when the class never ran), plus the
// dominant component.
func (r *Report) ClassCoverage(class string) (coverage float64, dominant string) {
	if r == nil {
		return 0, ""
	}
	cs := r.Classes[class]
	if cs == nil || cs.Total <= 0 {
		return 0, ""
	}
	var sum time.Duration
	for _, cd := range sortedComps(cs.Comps) {
		sum += cd.Dur
		if dominant == "" {
			dominant = cd.Comp
		}
	}
	return float64(sum) / float64(cs.Total), dominant
}

// WriteFolded emits the flamegraph in folded-stack format — one
// "stack;frames comp value" line, values in integer microseconds, lines
// sorted lexicographically so equal seeds export byte-identical files.
func (r *Report) WriteFolded(w io.Writer) error {
	if r == nil {
		return nil
	}
	keys := make([]string, 0, len(r.Folded))
	for k := range r.Folded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		us := r.Folded[k].Microseconds()
		if us <= 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", k, us); err != nil {
			return err
		}
	}
	return nil
}

// FoldedString renders WriteFolded into a string (tests, byte comparison).
func (r *Report) FoldedString() string {
	var b strings.Builder
	_ = r.WriteFolded(&b)
	return b.String()
}

// FormatAttribution renders the per-component attribution table, the
// per-class tables, and the top-K slowest frames — the text block that
// accompanies the metrics dump.
func (r *Report) FormatAttribution() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Critical-path attribution (%d frames, %.2f ms summed):\n", r.Frames, ms(r.Total))
	for _, cd := range sortedComps(r.Comps) {
		share := 0.0
		if r.Total > 0 {
			share = 100 * float64(cd.Dur) / float64(r.Total)
		}
		fmt.Fprintf(&b, "  %-28s %10.3f ms  %5.1f%%\n", cd.Comp, ms(cd.Dur), share)
	}
	classes := make([]string, 0, len(r.Classes))
	for c := range r.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, class := range classes {
		cs := r.Classes[class]
		cov, _ := r.ClassCoverage(class)
		fmt.Fprintf(&b, "Class %q (%d ops, %.2f ms total, %.1f%% attributed):\n",
			class, cs.Count, ms(cs.Total), 100*cov)
		for _, cd := range sortedComps(cs.Comps) {
			share := 0.0
			if cs.Total > 0 {
				share = 100 * float64(cd.Dur) / float64(cs.Total)
			}
			fmt.Fprintf(&b, "  %-28s %10.3f ms  %5.1f%%\n", cd.Comp, ms(cd.Dur), share)
		}
	}
	if len(r.Top) > 0 {
		fmt.Fprintf(&b, "Top %d slowest frames:\n", len(r.Top))
		for _, fr := range r.Top {
			fmt.Fprintf(&b, "  %-32s t=%.3fms latency=%.3fms\n", fr.Label, ms(fr.Start), ms(fr.Latency()))
			for _, cd := range fr.Comps {
				share := 0.0
				if fr.Latency() > 0 {
					share = 100 * float64(cd.Dur) / float64(fr.Latency())
				}
				fmt.Fprintf(&b, "      %-26s %8.3f ms  %5.1f%%\n", cd.Comp, ms(cd.Dur), share)
			}
		}
	}
	return b.String()
}

func sortedComps(m map[string]time.Duration) []CompDur {
	out := make([]CompDur, 0, len(m))
	for k, v := range m {
		out = append(out, CompDur{Comp: k, Dur: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dur != out[j].Dur {
			return out[i].Dur > out[j].Dur
		}
		return out[i].Comp < out[j].Comp
	})
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
