package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/emulator"
	"repro/internal/experiments"
	"repro/internal/fleetobs"
	"repro/internal/hostsim"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/svm"
	"repro/internal/tsmon"
	"repro/internal/workload"
)

// Workload sizes. Each is fixed so that one pass is the same amount of
// simulated work for every seed; the seed only changes the RNG streams.
const (
	appsPerCategory = 2                // Fig. 10 sweep: 54 sessions per pass
	appsDuration    = 10 * time.Second // virtual length of one apps session
	fetchApps       = 2                // Fig. 16 probe: 4 sessions per pass
	fetchDuration   = 3 * time.Second
	farmGuests      = 4
	farmShards      = 2
	farmHorizon     = 5 * time.Second
	farmPCIeBudget  = 6e9 // bytes/s, as the shardscale farm
	farmFPSFloor    = 30
)

// job is one session of a sweep workload: one app on one emulator preset
// on the high-end desktop, seeded from the benchmark seed.
type job struct {
	preset  emulator.Preset
	cat     int
	app     int
	seed    int64
	dur     time.Duration
	profile bool // attach a prof.Profiler, as vsocbench -exp micro does
}

func (j job) label() string {
	return fmt.Sprintf("%s/%s/%d", j.preset.Name, emulator.CategoryNames[j.cat], j.app)
}

// family reports whether the session counts toward the model_* metrics.
func (j job) family() bool { return strings.HasPrefix(j.preset.Name, "vSoC") }

// jobSeed derives a per-session seed the way internal/experiments does.
func jobSeed(base int64, emuIdx, cat, app int) int64 {
	return base + int64(emuIdx)*10007 + int64(cat)*101 + int64(app)*13 + 1
}

// appsJobs is the Fig. 10 emerging-app sweep on the high-end desktop:
// every preset x the five Table 1 categories x up to appsPerCategory apps,
// limited by each preset's compatibility.
func appsJobs(seed int64, dur time.Duration) []job {
	var jobs []job
	for ei, p := range emulator.All() {
		for cat := 0; cat < emulator.NumCategories; cat++ {
			n := min(p.EmergingCompat[cat], appsPerCategory)
			for app := 0; app < n; app++ {
				jobs = append(jobs, job{preset: p, cat: cat, app: app, seed: jobSeed(seed, ei, cat, app), dur: dur})
			}
		}
	}
	return jobs
}

// fetchJobs is the Fig. 16 write-invalidate probe with chunked demand
// fetches on and a profiler attached: vsocbench -exp micro -fetch.
func fetchJobs(seed int64, dur time.Duration) []job {
	p := emulator.VSoCNoPrefetch()
	p.Fetch = hostsim.EnabledFetch()
	var jobs []job
	for _, cat := range []int{emulator.CatUHDVideo, emulator.Cat360Video} {
		for app := 0; app < min(p.EmergingCompat[cat], fetchApps); app++ {
			jobs = append(jobs, job{preset: p, cat: cat, app: app, seed: jobSeed(seed, 500, cat, app), dur: dur, profile: true})
		}
	}
	return jobs
}

// outcome is one operation's simulated result, as the checks see it.
type outcome struct {
	res     *workload.Result
	st      *svm.Stats
	events  uint64
	notifs  int // virtqueue kicks + delivered IRQs over every device
	timeout int // device fence timeouts
	pending int // events left after Close
}

// invariant reports the first broken invariant of an operation.
func (o *outcome) invariant() error {
	switch {
	case o.res.Frames <= 0:
		return fmt.Errorf("no frames presented")
	case !finite(o.res.FPS) || !finite(o.res.Latency.Mean()) || !finite(o.res.Latency.Max()):
		return fmt.Errorf("non-finite FPS or motion-to-photon latency")
	case !finite(o.st.AccessLatency.Mean()) || !finite(o.st.AccessLatency.Max()):
		return fmt.Errorf("non-finite access latency")
	case o.pending != 0:
		return fmt.Errorf("%d events pending after Close", o.pending)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// digest hashes an operation's workload.Result and svm.Stats. Percentiles
// rather than raw sample order keep it independent of earlier sorting.
func (o *outcome) digest() uint64 {
	h := fnv.New64a()
	r, st := o.res, o.st
	fmt.Fprintf(h, "%s|%s|%s|%d|%d|%x|%d|%d|%d|%d|", r.App, r.Emulator, r.Machine, r.Category,
		r.Duration, math.Float64bits(r.FPS), r.Frames, r.Drops, r.StaleDrops, r.DeadlineDrops)
	for _, f := range r.PerSecondFPS {
		fmt.Fprintf(h, "%x,", math.Float64bits(f))
	}
	for _, d := range []*metrics.Distribution{&r.Latency, &st.AccessLatency, &st.HALAccessLatency,
		&st.CoherenceCost, &st.SlackIntervals, &st.RegionSizes, &st.SlackError, &st.PrefetchTimeError} {
		hashDist(h, d)
	}
	fmt.Fprintf(h, "%d %d %d %d %d %d|", st.BytesAccessed, st.BytesCoherence, st.BytesWasted,
		st.BytesReserved, st.PredTotal, st.PredCorrect)
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d|", st.CoherencePushes,
		st.CoherenceBatches, st.PushesCoalesced, st.ChunkedFetches, st.FetchJoins, st.PrefetchHits,
		st.PrefetchWaits, st.DemandFetches, st.SameDomainHits, st.GuestCoherence, st.DirectCoherence,
		st.RegionsAllocated, st.RegionsFreed, st.Accesses, st.Writes, st.Reads, o.events)
	return h.Sum64()
}

func hashDist(w io.Writer, d *metrics.Distribution) {
	fmt.Fprintf(w, "%d", d.Count())
	for _, v := range []float64{d.Sum(), d.Min(), d.Max(), d.Percentile(50), d.Percentile(90), d.Percentile(99)} {
		fmt.Fprintf(w, ",%x", math.Float64bits(v))
	}
	fmt.Fprint(w, "|")
}

// deviceCounts sums the transport and device counters of one emulator.
func deviceCounts(e *emulator.Emulator) (notifs, timeouts int) {
	for _, d := range e.Devices() {
		notifs += d.Ring().Stats().Kicks + d.IRQ().Delivered()
		timeouts += d.Stats().FenceTimeouts
	}
	return notifs, timeouts
}

// runJob builds, drives and tears down one session, timing each public
// call. The CPU of set-up (environment, machine, emulator, app start) is
// charged to setup; RunUntil through Close is the timed phase and lands in
// cost.
func runJob(j job, rec *recorder, setup *time.Duration, cost *hostCost) (o outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	c0, t0 := cpuTime(), time.Now()
	env := sim.NewEnv(j.seed)
	t1 := time.Now()
	var pf *prof.Profiler
	if j.profile {
		pf = prof.New()
		env.SetProfiler(pf)
	}
	t2 := time.Now()
	mach := hostsim.HighEndDesktop(env)
	t3 := time.Now()
	emu := emulator.New(env, mach, j.preset)
	t4 := time.Now()
	pd, err := workload.StartEmerging(emu, workload.DefaultSpec(j.cat, j.app, j.dur))
	t5, c5 := time.Now(), cpuTime()
	if err != nil {
		env.Close()
		return o, err
	}
	*setup += c5 - c0
	rec.call("sim.new_env_us", us(t1.Sub(t0)))
	rec.call("hostsim.machine_us", us(t3.Sub(t2)))
	rec.call("emulator.new_us", us(t4.Sub(t3)))
	rec.call("workload.start_us", us(t5.Sub(t4)))

	h0 := snap()
	env.RunUntil(pd.Stop())
	t6 := time.Now()
	res, err := pd.Wait()
	if pf != nil {
		pf.Report()
	}
	t7 := time.Now()
	env.Close()
	h1 := snap()
	cost.add(h0, h1)
	rec.call("sim.run_ms", ms(t6.Sub(h0.wall)))
	rec.call("workload.wait_us", us(t7.Sub(t6)))
	rec.call("sim.close_us", us(h1.wall.Sub(t7)))
	rec.sessions = append(rec.sessions, ms(h1.cpu-h0.cpu))
	if err != nil {
		return o, err
	}
	o = outcome{res: res, st: emu.Manager.Stats(), events: env.ExecutedEvents(), pending: env.PendingEvents()}
	o.notifs, o.timeout = deviceCounts(emu)
	return o, nil
}

// variantSeed is the seed of input variant k of a benchmark seed. A run
// cycles through its variants so that seed-to-seed differences in the
// simulated work average out within the run; variant 0 is the seed itself.
func variantSeed(seed int64, k int) int64 { return seed + int64(k)*7919 }

// sweep is a serial closed loop over a job list: one session after
// another, one client. Pass p runs input variant p mod len(variants).
type sweep struct {
	variants [][]job
	q        float64 // tail percentile of the session walls
	next     int
}

func (w *sweep) warmup(rec *recorder) error {
	for range w.variants {
		w.pass(rec)
	}
	return nil
}

func (w *sweep) tailQ() float64 { return w.q }

func (w *sweep) pass(rec *recorder) {
	k := w.next % len(w.variants)
	w.next++
	jobs := w.variants[k]
	ps := passStats{}
	var model modelAcc
	for i, j := range jobs {
		o, err := runJob(j, rec, &ps.setup, &ps.cost)
		if err == nil {
			err = o.invariant()
		}
		if err != nil {
			rec.fail(j.label(), err)
			continue
		}
		rec.check(k*len(jobs)+i, j.label(), o.digest())
		ps.simS += j.dur.Seconds()
		ps.events += o.events
		model.add(&o, j.family())
	}
	rec.endPass(ps, &model)
}

// farm is the 4-guest vSoC farm of the shardscale experiment with the
// fleet and monitor layers on (vsocbench -exp shardscale -fleet -mon):
// one pass builds it fresh and drives it to the horizon.
type farm struct {
	seeds   []int64 // one per input variant
	horizon time.Duration
	serial  []farmRun // serial-path reference of each variant
	next    int
}

var farmCategories = [farmGuests]int{
	emulator.CatUHDVideo, emulator.Cat360Video, emulator.CatCamera, emulator.CatLivestream,
}

// farmTenant is guest g's QoS contract, as the shardscale farm declares it.
func farmTenant(g, cat int) fleetobs.TenantConfig {
	tc := fleetobs.TenantConfig{Name: fmt.Sprintf("g%d:%s", g, emulator.CategoryNames[cat]), FPSFloor: farmFPSFloor}
	switch cat {
	case emulator.CatCamera, emulator.CatAR:
		tc.M2PSLO = 100 * time.Millisecond
	case emulator.CatLivestream:
		tc.M2PSLO = 250 * time.Millisecond
	}
	return tc
}

// frameTee fans a guest's frame telemetry out to the fleet and monitor.
type frameTee struct{ a, b emulator.FrameObserver }

func (t frameTee) FramePresented(at time.Duration) { t.a.FramePresented(at); t.b.FramePresented(at) }
func (t frameTee) FrameDropped(at time.Duration)   { t.a.FrameDropped(at); t.b.FrameDropped(at) }
func (t frameTee) MotionToPhoton(at, l time.Duration) {
	t.a.MotionToPhoton(at, l)
	t.b.MotionToPhoton(at, l)
}

// windowTee is the benchmark's shard observer: it records each window's
// wall-clock split and forwards the window to the fleet unchanged.
type windowTee struct {
	next    sim.ShardObserver
	windows int
	walls   []float64 // µs per window
	coord   time.Duration
	wall    time.Duration
	compute time.Duration
	shards  int
}

func (t *windowTee) ShardWindow(w *sim.ShardWindowStats) {
	win := w.WallScan + w.WallExec + w.WallArb
	t.windows++
	t.walls = append(t.walls, us(win))
	t.coord += w.WallScan + w.WallArb
	t.wall += win
	t.shards = len(w.Shards)
	for _, s := range w.Shards {
		t.compute += s.Compute
	}
	t.next.ShardWindow(w)
}

// farmRun is one farm pass's deterministic output.
type farmRun struct {
	guests  []outcome
	events  uint64
	windows int
	fleet   string // fleet report JSON
	monitor string // monitor report digest
}

// run builds the farm, drives it to the horizon with the given shard count
// and tears it down. tee, when non-nil, is installed as the group's shard
// observer in front of the fleet.
func (f *farm) run(seed int64, shards int, rec *recorder, ps *passStats, tee *windowTee) (fr farmRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	c0 := cpuTime()
	fcfg := fleetobs.Config{Registry: obs.NewRegistry()}
	var mcfg tsmon.Config
	for g, cat := range farmCategories {
		tc := farmTenant(g, cat)
		fcfg.Tenants = append(fcfg.Tenants, tc)
		mcfg.Tenants = append(mcfg.Tenants, tsmon.TenantConfig{Name: tc.Name, FPSFloor: tc.FPSFloor, M2PSLO: tc.M2PSLO})
	}
	fl, mon := fleetobs.New(fcfg), tsmon.New(mcfg)

	envs := make([]*sim.Env, 0, farmGuests)
	machs := make([]*hostsim.Machine, 0, farmGuests)
	emus := make([]*emulator.Emulator, 0, farmGuests)
	pend := make([]*workload.Pending, 0, farmGuests)
	defer func() {
		for _, e := range envs {
			e.Close()
		}
	}()
	var stop time.Duration
	for g, cat := range farmCategories {
		c0 := time.Now()
		env := sim.NewEnv(jobSeed(seed, 700+g, cat, 0))
		c1 := time.Now()
		mach := hostsim.HighEndDesktop(env)
		c2 := time.Now()
		emu := emulator.New(env, mach, emulator.VSoC())
		c3 := time.Now()
		envs, machs, emus = append(envs, env), append(machs, mach), append(emus, emu)
		ft, mt := fl.Tenant(g), mon.Tenant(g)
		emu.FrameObs = frameTee{ft, mt}
		emu.Manager.SetFetchObserver(func(at, latency time.Duration) {
			ft.DemandFetch(at, latency)
			mt.DemandFetch(at, latency)
		})
		experiments.MonitorProbes(mt, &workload.Session{Env: env, Machine: mach, Emulator: emu})
		c4 := time.Now()
		pd, err := workload.StartEmerging(emu, workload.DefaultSpec(cat, g, f.horizon))
		if err != nil {
			return fr, fmt.Errorf("guest %d: %w", g, err)
		}
		c5 := time.Now()
		pend = append(pend, pd)
		stop = max(stop, pd.Stop())
		rec.call("sim.new_env_us", us(c1.Sub(c0)))
		rec.call("hostsim.machine_us", us(c2.Sub(c1)))
		rec.call("emulator.new_us", us(c3.Sub(c2)))
		rec.call("workload.start_us", us(c5.Sub(c4)))
	}
	sh := hostsim.NewSharedHost(hostsim.SharedHostConfig{PCIeBudget: farmPCIeBudget}, machs...)
	grp := sim.NewShardGroup(sh.Lookahead(), shards, envs...)
	defer grp.Close()
	sh.Attach(grp)
	// Barrier hooks run with or without an observer, so the serial
	// reference and the sharded passes count windows the same way.
	grp.AtBarrier(func(prev, now time.Duration) { fr.windows++ })
	fl.Attach(grp, sh)
	grp.AtBarrier(func(prev, now time.Duration) { mon.Seal(now) })
	if tee != nil {
		tee.next = fl
		grp.SetObserver(tee)
	}
	ps.setup += cpuTime() - c0

	h0 := snap()
	grp.RunUntil(stop)
	t1 := time.Now()
	fl.Finalize(stop)
	fleetJSON, err := fl.Report(stop).JSON()
	if err != nil {
		return fr, fmt.Errorf("fleet report: %w", err)
	}
	mon.Finalize(stop)
	fr.monitor = mon.Report().Digest
	results := make([]*workload.Result, farmGuests)
	for g, pd := range pend {
		if results[g], err = pd.Wait(); err != nil {
			return fr, fmt.Errorf("guest %d: %w", g, err)
		}
	}
	t2 := time.Now()
	grp.Close()
	for _, e := range envs {
		e.Close()
	}
	h1 := snap()
	ps.cost.add(h0, h1)
	rec.call("sim.run_ms", ms(t1.Sub(h0.wall)))
	rec.call("workload.wait_us", us(t2.Sub(t1)))
	rec.call("sim.close_us", us(h1.wall.Sub(t2)))
	rec.sessions = append(rec.sessions, ms(h1.cpu-h0.cpu))

	fr.fleet = string(fleetJSON)
	fr.events = grp.ExecutedEvents()
	for g := range envs {
		o := outcome{res: results[g], st: emus[g].Manager.Stats(), events: envs[g].ExecutedEvents(), pending: envs[g].PendingEvents()}
		o.notifs, o.timeout = deviceCounts(emus[g])
		fr.guests = append(fr.guests, o)
	}
	return fr, nil
}

// warmup runs every variant on the serial path. These runs are the
// references every sharded pass of the run is checked against.
func (f *farm) warmup(rec *recorder) error {
	f.serial = make([]farmRun, len(f.seeds))
	for k, seed := range f.seeds {
		var ps passStats
		fr, err := f.run(seed, 1, rec, &ps, nil)
		if err != nil {
			return err
		}
		var model modelAcc
		for g, cat := range farmCategories {
			name := farmTenant(g, cat).Name
			if err := fr.guests[g].invariant(); err != nil {
				rec.fail(name, err)
				continue
			}
			rec.check(k*farmGuests+g, name, fr.guests[g].digest())
			model.add(&fr.guests[g], true)
		}
		model.windows = fr.windows
		rec.endPass(ps, &model)
		f.serial[k] = fr
	}
	return nil
}

func (f *farm) tailQ() float64 { return 90 }

func (f *farm) pass(rec *recorder) {
	k := f.next % len(f.seeds)
	f.next++
	serial := &f.serial[k]
	var ps passStats
	tee := &windowTee{walls: make([]float64, 0, 4096)}
	fr, err := f.run(f.seeds[k], farmShards, rec, &ps, tee)
	if err != nil {
		for g, cat := range farmCategories {
			rec.fail(farmTenant(g, cat).Name, err)
		}
		return
	}
	// The farm-level outputs must match the serial path too; a mismatch
	// fails every guest of the pass.
	var farmErr error
	switch {
	case fr.events != serial.events || fr.windows != serial.windows:
		farmErr = fmt.Errorf("events/windows %d/%d differ from serial %d/%d", fr.events, fr.windows, serial.events, serial.windows)
	case fr.fleet != serial.fleet:
		farmErr = fmt.Errorf("fleet report differs from serial")
	case fr.monitor != serial.monitor:
		farmErr = fmt.Errorf("monitor digest differs from serial")
	}
	for g, cat := range farmCategories {
		name := farmTenant(g, cat).Name
		o := &fr.guests[g]
		err := farmErr
		if err == nil {
			err = o.invariant()
		}
		if err != nil {
			rec.fail(name, err)
			continue
		}
		rec.check(k*farmGuests+g, name, o.digest())
		ps.simS += f.horizon.Seconds()
	}
	ps.events = fr.events
	ps.windows = tee.windows
	ps.windowP50 = percentile(tee.walls, 50)
	ps.windowP99 = percentile(tee.walls, 99)
	ps.coord = tee.coord
	ps.windowWall = tee.wall
	ps.compute = tee.compute
	ps.shards = tee.shards
	rec.endPass(ps, nil)
}
