// Command hostbench measures the host cost of simulating vSoC: wall time,
// CPU, allocations and memory per simulated second over three workloads,
// with per-module CPU attribution from a separate traced run. See README.md.
//
//	go run . --workload apps --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/metrics"
)

// minPasses keeps medians meaningful when a pass is long against --seconds.
const minPasses = 3

// profileHz is the traced run's CPU sampling rate, raised from pprof's
// 100 Hz so the small modules get usable sample counts. Kernels with a
// 250 Hz tick deliver no more than this; module shares are scaled to the
// measured process CPU in any case.
const profileHz = 250

// bench is one workload: warm-up builds its references, pass runs one
// unit of work, tailQ is the session percentile its tail is reported at.
type bench interface {
	warmup(rec *recorder) error
	pass(rec *recorder)
	tailQ() float64
}

// Input variants per run (see variantSeed).
const (
	appsVariants  = 1 // 54 sessions per pass already average the seed out
	fetchVariants = 4
	farmVariants  = 8
)

func newBench(name string, seed int64) (bench, error) {
	switch name {
	case "apps", "fetch":
		jobsOf, n, q, dur := appsJobs, appsVariants, 95.0, appsDuration
		if name == "fetch" {
			jobsOf, n, q, dur = fetchJobs, fetchVariants, 90, fetchDuration
		}
		w := &sweep{q: q}
		for k := 0; k < n; k++ {
			w.variants = append(w.variants, jobsOf(variantSeed(seed, k), dur))
		}
		return w, nil
	case "farm":
		f := &farm{horizon: farmHorizon}
		for k := 0; k < farmVariants; k++ {
			f.seeds = append(f.seeds, variantSeed(seed, k))
		}
		return f, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// passStats is one pass's host cost and work.
type passStats struct {
	simS   float64 // simulated seconds completed (summed over sessions or guests)
	cost   hostCost
	setup  time.Duration // CPU
	events uint64

	// Shard scheduler, farm only.
	windows              int     // executed windows, as the shard observer saw them
	windowP50, windowP99 float64 // µs
	coord                time.Duration
	windowWall           time.Duration
	compute              time.Duration
	shards               int
}

// modelAcc folds the deterministic results of one or more passes.
type modelAcc struct {
	passes                          int
	simS                            float64
	events                          uint64
	windows                         int
	fps                             []float64 // vSoC-family sessions or guests
	access                          metrics.Distribution
	reads, writes, demand, hits     int
	chunked, joins, pushes, batches int
	accesses, notifs, timeouts      int
	bytesWasted, bytesCoherence     int64
}

// merge folds another pass's results into m.
func (m *modelAcc) merge(o *modelAcc) {
	m.passes++
	m.simS += o.simS
	m.events += o.events
	m.windows += o.windows
	m.fps = append(m.fps, o.fps...)
	m.access.Merge(&o.access)
	m.reads += o.reads
	m.writes += o.writes
	m.demand += o.demand
	m.hits += o.hits
	m.chunked += o.chunked
	m.joins += o.joins
	m.pushes += o.pushes
	m.batches += o.batches
	m.accesses += o.accesses
	m.notifs += o.notifs
	m.timeouts += o.timeouts
	m.bytesWasted += o.bytesWasted
	m.bytesCoherence += o.bytesCoherence
}

func (m *modelAcc) add(o *outcome, family bool) {
	m.simS += o.res.Duration.Seconds()
	m.events += o.events
	if family {
		m.fps = append(m.fps, o.res.FPS)
		m.access.Merge(&o.st.AccessLatency)
	}
	st := o.st
	m.reads += st.Reads
	m.writes += st.Writes
	m.demand += st.DemandFetches
	m.hits += st.PrefetchHits
	m.chunked += st.ChunkedFetches
	m.joins += st.FetchJoins
	m.pushes += st.CoherencePushes
	m.batches += st.CoherenceBatches
	m.accesses += st.Accesses
	m.notifs += o.notifs
	m.timeouts += o.timeout
	m.bytesWasted += int64(st.BytesWasted)
	m.bytesCoherence += int64(st.BytesCoherence)
}

// recorder accumulates one run: timed calls, session walls, passes, and
// operation accounting against the reference digests.
type recorder struct {
	calls    map[string][]float64
	sessions []float64 // CPU ms of each session's timed phase (farm: each pass)
	passes   []passStats
	// model folds the warm-up passes, which cover every input variant once;
	// later passes repeat them exactly, as the digest checks enforce.
	model   modelAcc
	warming bool

	attempted, failed int
	refs              []uint64       // recorded digests for this seed; nil checks invariants only
	first             map[int]uint64 // first digest seen per operation index
}

func newRecorder(refs []uint64) *recorder {
	return &recorder{calls: map[string][]float64{}, refs: refs, first: map[int]uint64{}}
}

func (r *recorder) call(name string, v float64) { r.calls[name] = append(r.calls[name], v) }

func (r *recorder) fail(op string, err error) {
	r.attempted++
	r.failed++
	if r.failed <= 10 {
		fmt.Fprintf(os.Stderr, "hostbench: %s failed: %v\n", op, err)
	}
}

// check accounts one completed operation whose invariants held: it fails
// if its digest differs from the recorded reference or from the first
// time this operation ran in the run.
func (r *recorder) check(i int, op string, d uint64) {
	switch first, seen := r.first[i]; {
	case r.refs != nil && (i >= len(r.refs) || r.refs[i] != d):
		r.fail(op, fmt.Errorf("digest %016x differs from the recorded reference", d))
	case seen && first != d:
		r.fail(op, fmt.Errorf("digest %016x differs from the run's first %016x", d, first))
	default:
		r.attempted++
	}
	if _, seen := r.first[i]; !seen {
		r.first[i] = d
	}
}

func (r *recorder) endPass(ps passStats, m *modelAcc) {
	if ps.simS > 0 {
		r.passes = append(r.passes, ps)
	}
	if r.warming {
		r.model.merge(m)
	}
}

// resetHost drops host measurements (calls, sessions, passes) and keeps
// the operation accounting and the model.
func (r *recorder) resetHost() {
	r.calls = map[string][]float64{}
	r.sessions = nil
	r.passes = nil
}

// measure runs passes until d has elapsed and at least minPasses are done.
func measure(b bench, rec *recorder, d time.Duration) {
	start := time.Now()
	for len(rec.passes) < minPasses || time.Since(start) < d {
		n := len(rec.passes)
		b.pass(rec)
		if len(rec.passes) == n && time.Since(start) > 2*d {
			return // every pass failing: stop, the failures are counted
		}
	}
}

// perPass is the median over passes of f.
func (r *recorder) perPass(f func(p *passStats) float64) float64 {
	vs := make([]float64, len(r.passes))
	for i := range r.passes {
		vs[i] = f(&r.passes[i])
	}
	return median(vs)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func endToEndMetrics(rec *recorder, q float64, rssMB float64) map[string]float64 {
	m := &rec.model
	out := map[string]float64{
		"sim_s_per_s":          rec.perPass(func(p *passStats) float64 { return p.simS / p.cost.ownWall().Seconds() }),
		"cpu_s_per_sim_s":      rec.perPass(func(p *passStats) float64 { return p.cost.cpu.Seconds() / p.simS }),
		"allocs_per_sim_s":     rec.perPass(func(p *passStats) float64 { return float64(p.cost.allocs) / p.simS }),
		"alloc_mb_per_sim_s":   rec.perPass(func(p *passStats) float64 { return float64(p.cost.bytes) / 1e6 / p.simS }),
		"peak_rss_mb":          rssMB,
		"setup_s":              rec.perPass(func(p *passStats) float64 { return p.setup.Seconds() }),
		"session_ms_p50":       median(rec.sessions),
		"session_ms_tail":      percentile(rec.sessions, q),
		"model_access_ms_mean": m.access.Mean(),
	}
	var sum float64
	for _, f := range m.fps {
		sum += f
	}
	out["model_fps"] = ratio(sum, float64(len(m.fps)))
	return out
}

// layerMetrics derives the per-layer metrics: timed calls, counts and
// ratios from the untraced half, module CPU from the traced half.
func layerMetrics(untraced, traced *recorder, nanos map[string]int64, tracedCPU time.Duration) map[string]float64 {
	out := map[string]float64{}
	var tracedSimS float64
	for _, p := range traced.passes {
		tracedSimS += p.simS
	}
	var sampled int64
	for _, n := range nanos {
		sampled += n
	}
	for _, mod := range modules {
		share := ratio(float64(nanos[mod.Name]), float64(sampled))
		out[mod.Name+".cpu_ms_per_sim_s"] = ratio(share*ms(tracedCPU), tracedSimS)
	}
	sps := func(r *recorder) float64 {
		return r.perPass(func(p *passStats) float64 { return p.simS / p.cost.ownWall().Seconds() })
	}
	u, t := sps(untraced), sps(traced)
	out["trace.untraced_sim_s_per_s"] = u
	out["trace.traced_sim_s_per_s"] = t
	out["trace.overhead_frac"] = 1 - ratio(t, u)
	for _, name := range []string{"sim.new_env_us", "hostsim.machine_us", "emulator.new_us",
		"workload.start_us", "sim.run_ms", "workload.wait_us", "sim.close_us"} {
		out[name] = median(untraced.calls[name])
	}
	r := untraced
	out["sim.host_ns_per_event"] = r.perPass(func(p *passStats) float64 { return ratio(float64(p.cost.ownWall()), float64(p.events)) })
	out["sim.window_us_p50"] = r.perPass(func(p *passStats) float64 { return p.windowP50 })
	out["sim.window_us_p99"] = r.perPass(func(p *passStats) float64 { return p.windowP99 })
	out["sim.barrier_stall_frac"] = r.perPass(func(p *passStats) float64 {
		if p.windowWall == 0 {
			return 0
		}
		return 1 - float64(p.compute)/(float64(p.shards)*float64(p.windowWall))
	})
	out["sim.coord_us_per_window"] = r.perPass(func(p *passStats) float64 { return ratio(us(p.coord), float64(p.windows)) })
	out["runtime.allocs_per_event"] = r.perPass(func(p *passStats) float64 { return ratio(float64(p.cost.allocs), float64(p.events)) })
	out["runtime.gc_cycles"] = r.perPass(func(p *passStats) float64 { return float64(p.cost.gcs) })
	// Exact counts come from the warm-up, which ran every input variant
	// once; counts are per pass, averaged over the variants.
	m := &untraced.model
	perPass := func(n int) float64 { return ratio(float64(n), float64(m.passes)) }
	out["sim.events_per_sim_s"] = ratio(float64(m.events), m.simS)
	out["sim.windows"] = perPass(m.windows)
	out["sim.events_per_window"] = ratio(float64(m.events), float64(m.windows))
	out["svm.reads"] = perPass(m.reads)
	out["svm.writes"] = perPass(m.writes)
	out["svm.demand_fetches"] = perPass(m.demand)
	out["svm.prefetch_hit_ratio"] = ratio(float64(m.hits), float64(m.reads))
	out["svm.waste_ratio"] = ratio(float64(m.bytesWasted), float64(m.bytesCoherence))
	out["svm.fetch_join_ratio"] = ratio(float64(m.joins), float64(m.chunked))
	out["svm.pushes_per_batch"] = ratio(float64(m.pushes), float64(m.batches))
	out["virtio.notifs_per_access"] = ratio(float64(m.notifs), float64(m.accesses))
	out["device.fence_timeouts"] = perPass(m.timeouts)
	return out
}

// profiled runs fn under a CPU profile and returns the decoded samples and
// the process CPU fn took.
func profiled(fn func()) ([]cpuSample, time.Duration, error) {
	var buf bytes.Buffer
	// Setting the rate first makes StartCPUProfile keep it; the runtime
	// prints a harmless "cannot set cpu profile rate" note to stderr.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, 0, fmt.Errorf("start cpu profile: %w", err)
	}
	h0 := snap()
	fn()
	h1 := snap()
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	return samples, h1.cpu - h0.cpu, err
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	record   string
}

// outDir holds the traced run's host-time folded stacks, next to the
// build that run.sh leaves there.
const outDir = ".bench_build"

func run(opt options) (*result, error) {
	b, err := newBench(opt.workload, opt.seed)
	if err != nil {
		return nil, err
	}
	var refs []uint64
	if opt.record == "" {
		if refs, err = referenceDigests(opt.workload, opt.seed); err != nil {
			return nil, err
		}
	}
	rec := newRecorder(refs)
	rec.warming = true
	if err := b.warmup(rec); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rec.warming = false
	if opt.record != "" {
		return nil, recordDigests(opt.record, opt.workload, opt.seed, rec.first)
	}
	rec.resetHost()
	runtime.GC()
	d := time.Duration(opt.seconds) * time.Second

	var values map[string]float64
	var units map[string]string
	if opt.trace == 0 {
		measure(b, rec, d)
		n, q := len(rec.sessions), b.tailQ()
		if float64(n)*(100-q)/100 < 10 {
			q = tailPercentile(n)
		}
		fmt.Printf("# session_ms_tail is p%g of %d sessions (%.0f beyond it)\n", q, n, float64(n)*(100-q)/100)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		values = endToEndMetrics(rec, q, rss)
		units = map[string]string{}
		for _, m := range endToEnd {
			units[m.Name] = m.Unit
		}
	} else {
		// A third of the time untraced (overhead baseline, timed calls,
		// counts), two thirds under the profiler (module attribution).
		measure(b, rec, d/3)
		untraced := *rec
		rec.resetHost()
		samples, cpu, err := profiled(func() { measure(b, rec, d-d/3) })
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		folded := filepath.Join(outDir, opt.workload+".host.folded")
		if err := writeFolded(folded, samples); err != nil {
			return nil, err
		}
		fmt.Printf("# host-time folded stacks: %s (%d stacks at %d Hz)\n", folded, len(samples), profileHz)
		values = layerMetrics(&untraced, rec, moduleNanos(samples), cpu)
		units = map[string]string{}
		for _, m := range perLayer() {
			units[m.Name] = m.Unit
		}
	}
	res := &result{Attempted: rec.attempted, Failed: rec.failed, Metrics: map[string]metric{}}
	res.Correct = rec.failed == 0 && rec.attempted > 0 && len(rec.passes) > 0
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.Metrics[name] = metric{Value: values[name], Unit: units[name]}
		fmt.Printf("# %-32s %16.6f %s\n", name, values[name], units[name])
	}
	return res, nil
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "apps", "workload: apps, fetch or farm")
	flag.Int64Var(&opt.seed, "seed", 1, "input seed")
	flag.IntVar(&opt.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&opt.record, "record", "", "write this seed's reference digests into the given refs file and exit")
	flag.Parse()
	if opt.seconds < 1 || (opt.trace != 0 && opt.trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	if res == nil {
		return
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
