package experiments

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// cellObs builds the observability layer for one robustness cell: a tracer
// windowed to the fault interval ±1 s when cfg.TracePath is set, and a
// metrics registry when cfg.Metrics is set. Either may come back nil.
func cellObs(cfg Config, faultAt, faultFor time.Duration) (*obs.Tracer, *obs.Registry) {
	var tr *obs.Tracer
	if cfg.TracePath != "" {
		tr = obs.NewTracer()
		from := faultAt - time.Second
		if from < 0 {
			from = 0
		}
		tr.SetWindow(from, faultAt+faultFor+time.Second)
	}
	var reg *obs.Registry
	if cfg.Metrics {
		reg = obs.NewRegistry()
	}
	return tr, reg
}

// cellTracePath derives the per-cell trace file name from the configured
// base path: base minus a trailing ".json", then "-<emulator>-<fault>.json"
// with the emulator name sanitized to [a-z0-9-].
func cellTracePath(base, emu string, class faults.Class) string {
	stem := strings.TrimSuffix(base, ".json")
	return fmt.Sprintf("%s-%s-%s.json", stem, sanitizeName(emu), sanitizeName(string(class)))
}

func sanitizeName(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// writeReport creates path, fills it through write, and returns what the
// result structs record: the path, or "error: ..." when any step failed.
func writeReport(path string, write func(io.Writer) error) string {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return "error: " + err.Error()
	}
	return path
}

// writeTrace exports t as a Chrome/Perfetto trace-event JSON file.
func writeTrace(path string, t *obs.Tracer) string {
	return writeReport(path, func(w io.Writer) error { return obs.WritePerfetto(w, t) })
}

// FormatRobustnessObs renders the observability addendum of a robustness
// sweep: the trace files written per cell and any per-cell metrics dumps.
// It returns "" when neither -trace nor -metrics was active, so the main
// report stays byte-identical with observability off.
func FormatRobustnessObs(r *RobustnessResult) string {
	var b strings.Builder
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.TraceFile != "" {
			fmt.Fprintf(&b, "trace %-16s %-16s %s\n", c.Emulator, c.Fault, c.TraceFile)
		}
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.MetricsDump != "" {
			fmt.Fprintf(&b, "\n== metrics %s / %s ==\n%s", c.Emulator, c.Fault, c.MetricsDump)
		}
	}
	return b.String()
}
