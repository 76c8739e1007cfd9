package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, nameRE)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q does not match %s", name, unit, unitRE)
		}
		if better != "higher" && better != "lower" {
			t.Errorf("%s: better = %q", name, better)
		}
		if seen[name] {
			t.Errorf("metric %q declared twice", name)
		}
		seen[name] = true
	}
	for _, m := range endToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer() {
		check(m.Name, m.Unit, m.Better)
	}
}

func TestPerLayerDeclaresTarget(t *testing.T) {
	e2e, wls := map[string]bool{}, map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	for _, w := range workloads {
		wls[w.Name] = true
	}
	for _, m := range perLayer() {
		if !e2e[m.Moves] {
			t.Errorf("%s moves %q, not an end-to-end metric", m.Name, m.Moves)
		}
		if !wls[m.Workload] {
			t.Errorf("%s names workload %q, not a workload", m.Name, m.Workload)
		}
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the declarations here.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i] != w {
			t.Errorf("workload %d: json %+v, code %+v", i, b.Workloads[i], w)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end_to_end %d: json %+v, code %+v", i, j, m)
		}
	}
	pl := perLayer()
	if len(b.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(b.PerLayer), len(pl))
	}
	for i, m := range pl {
		j := b.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per_layer %d: json %+v, code %+v", i, j, m)
		}
	}
}

// tinySweep is two short apps sessions: enough to exercise every check.
func tinySweep() *sweep {
	return &sweep{variants: [][]job{appsJobs(3, 300*time.Millisecond)[:2]}, q: 50}
}

func TestWrongReferenceDigestFails(t *testing.T) {
	rec := newRecorder(nil)
	tinySweep().pass(rec)
	if rec.failed != 0 || rec.attempted != 2 {
		t.Fatalf("clean pass: attempted %d failed %d", rec.attempted, rec.failed)
	}
	refs := []uint64{rec.first[0], rec.first[1] ^ 1}
	rec = newRecorder(refs)
	tinySweep().pass(rec)
	if rec.attempted != 2 || rec.failed != 1 {
		t.Fatalf("one wrong reference: attempted %d failed %d, want 2 and 1", rec.attempted, rec.failed)
	}
}

func TestDigestDriftWithinRunFails(t *testing.T) {
	rec := newRecorder(nil)
	rec.check(0, "op", 1)
	rec.check(0, "op", 2)
	if rec.attempted != 2 || rec.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", rec.attempted, rec.failed)
	}
}

// exactMetrics are the metrics that must repeat bit for bit for a seed.
func exactMetrics(rec *recorder) map[string]float64 {
	e2e := endToEndMetrics(rec, 50, 1)
	out := map[string]float64{"model_fps": e2e["model_fps"], "model_access_ms_mean": e2e["model_access_ms_mean"]}
	layers := layerMetrics(rec, rec, nil, 0)
	for _, name := range []string{"sim.events_per_sim_s", "sim.windows", "sim.events_per_window",
		"svm.reads", "svm.writes", "svm.demand_fetches", "svm.prefetch_hit_ratio", "svm.waste_ratio",
		"svm.fetch_join_ratio", "svm.pushes_per_batch", "virtio.notifs_per_access", "device.fence_timeouts"} {
		out[name] = layers[name]
	}
	return out
}

func TestExactMetricsRepeat(t *testing.T) {
	benches := map[string]func() bench{
		"apps": func() bench { return tinySweep() },
		"fetch": func() bench {
			return &sweep{variants: [][]job{fetchJobs(3, 300*time.Millisecond)[:2], fetchJobs(4, 300*time.Millisecond)[:2]}, q: 50}
		},
		"farm": func() bench { return &farm{seeds: []int64{3, 4}, horizon: 300 * time.Millisecond} },
	}
	for name, mk := range benches {
		var runs [2]map[string]float64
		for i := range runs {
			b := mk()
			rec := newRecorder(nil)
			rec.warming = true
			if err := b.warmup(rec); err != nil {
				t.Fatal(err)
			}
			rec.warming = false
			rec.resetHost()
			b.pass(rec)
			if rec.failed != 0 {
				t.Fatalf("%s: %d failed operations", name, rec.failed)
			}
			runs[i] = exactMetrics(rec)
		}
		for k, v := range runs[0] {
			if math.Float64bits(v) != math.Float64bits(runs[1][k]) {
				t.Errorf("%s: %s = %v then %v", name, k, v, runs[1][k])
			}
		}
		if runs[0]["model_fps"] <= 0 || runs[0]["sim.events_per_sim_s"] <= 0 {
			t.Errorf("%s: empty model metrics %v", name, runs[0])
		}
	}
}

// TestObserverTeeKeepsReports pins that the benchmark's shard observer,
// installed in front of the fleet, leaves the fleet report, the monitor
// digest and every guest's result byte-identical.
func TestObserverTeeKeepsReports(t *testing.T) {
	f := &farm{horizon: 500 * time.Millisecond}
	var ps passStats
	plain, err := f.run(5, farmShards, newRecorder(nil), &ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	tee := &windowTee{}
	teed, err := f.run(5, farmShards, newRecorder(nil), &ps, tee)
	if err != nil {
		t.Fatal(err)
	}
	if tee.windows == 0 || tee.windows != teed.windows {
		t.Fatalf("tee saw %d windows, group ran %d", tee.windows, teed.windows)
	}
	if plain.fleet != teed.fleet {
		t.Error("fleet report differs with the observer tee attached")
	}
	if plain.monitor != teed.monitor {
		t.Errorf("monitor digest %s, with tee %s", plain.monitor, teed.monitor)
	}
	for g := range plain.guests {
		if plain.guests[g].digest() != teed.guests[g].digest() {
			t.Errorf("guest %d result differs with the observer tee attached", g)
		}
	}
}

func TestModuleOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.chansend", "repro/internal/sim.(*Env).resume", "repro/internal/workload.(*sink).run"}, "sim"},
		{[]string{"runtime.mallocgc", "repro/internal/svm.(*Manager).BeginAccess.func1"}, "svm"},
		{[]string{"repro/internal/experiments.MonitorProbes.func2", "repro/internal/tsmon.(*Monitor).Seal"}, "other"},
		{[]string{"runtime.memmove", "main.(*outcome).digest", "main.main"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.sched"},
	}
	for _, c := range cases {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	rec := newRecorder(nil)
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		tinySweep().pass(rec)
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	nanos := moduleNanos(samples)
	for mod := range nanos {
		if !moduleListed[mod] {
			t.Errorf("sample charged to undeclared module %q", mod)
		}
	}
	if nanos["sim"] <= 0 {
		t.Fatalf("no sim samples in %d decoded stacks: %v", len(samples), nanos)
	}
	path := t.TempDir() + "/x.host.folded"
	if err := writeFolded(path, samples); err != nil {
		t.Fatal(err)
	}
	folded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^\S+;\S+ \d+$`).Match(folded) {
		t.Errorf("folded file has no 'frame;frame count' line:\n%.300s", folded)
	}
}
