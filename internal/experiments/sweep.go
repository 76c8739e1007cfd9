package experiments

import (
	"repro/internal/emulator"
	"repro/internal/prof"
	"repro/internal/workload"
)

// appRun is one app session of a sweep: preset on machine, seeded, running
// spec. cat and app name the Table 1 slot the run fills; a popular-app run
// (start set) puts its PopularKind in cat.
type appRun struct {
	preset   emulator.Preset
	machine  MachineSpec
	seed     int64
	cat, app int
	spec     workload.Spec
	// start launches the app; nil means workload.StartEmerging.
	start func(*emulator.Emulator, workload.Spec) (*workload.Pending, error)
}

// allCats lists the five Table 1 categories in order.
func allCats() []int {
	cats := make([]int, emulator.NumCategories)
	for i := range cats {
		cats[i] = i
	}
	return cats
}

// appsOf lists preset's runs on machine over cats, category-major: the
// first min(n, compat) apps of each category, where compat is how many of
// the category's apps the preset runs at all (§5.3). Each run gets the
// default spec and the independent seed appSeed(cfg.Seed, seedIdx, cat, app).
func appsOf(cfg Config, preset emulator.Preset, machine MachineSpec, seedIdx, n int, cats ...int) []appRun {
	var runs []appRun
	for _, cat := range cats {
		for app := 0; app < min(n, preset.EmergingCompat[cat]); app++ {
			runs = append(runs, appRun{
				preset: preset, machine: machine, cat: cat, app: app,
				seed: appSeed(cfg.Seed, seedIdx, cat, app),
				spec: workload.DefaultSpec(cat, app, cfg.Duration),
			})
		}
	}
	return runs
}

// popularApps lists preset's runs of the first apps of mix on the high-end
// machine, in mix order, each seeded appSeed(cfg.Seed, seedIdx, kind, app).
func popularApps(cfg Config, preset emulator.Preset, seedIdx int, mix []workload.PopularKind) []appRun {
	runs := make([]appRun, len(mix))
	for app, kind := range mix {
		runs[app] = appRun{
			preset: preset, machine: HighEnd, cat: int(kind), app: app,
			seed: appSeed(cfg.Seed, seedIdx, int(kind), app),
			spec: workload.PopularSpec(kind, app, cfg.Duration),
			start: func(e *emulator.Emulator, spec workload.Spec) (*workload.Pending, error) {
				return workload.StartPopular(e, kind, spec)
			},
		}
	}
	return runs
}

// fpsOf is the sweep collector of drivers that keep only each run's FPS.
func fpsOf(_ *workload.Session, r *workload.Result) float64 { return r.FPS }

// swept is one completed run and what its collector took from it.
type swept[R any] struct {
	appRun
	out R
}

// sweep simulates every run on a fresh session, starting its app as a
// workload.Pending and driving the session to the app's stop, and returns
// collect's view of each run whose app could start, in run order; runs that
// cannot start (an emulator lacking a device the app needs) are skipped. With profile
// set, each session gets its own critical-path profiler, attached before
// the emulator is assembled, for collect to read through Env.Profiler.
// collect sees the session before it closes. Runs fan out across
// Config.Workers (pool.go), so the result is identical at every worker
// count.
func sweep[R any](cfg Config, runs []appRun, profile bool,
	collect func(*workload.Session, *workload.Result) R) []swept[R] {
	done := ParMap(cfg.EffectiveWorkers(), len(runs), func(i int) *swept[R] {
		run := runs[i]
		var pf *prof.Profiler
		if profile {
			pf = prof.New()
		}
		sess := workload.NewObservedSession(run.preset, run.machine.New, run.seed, nil, nil, pf)
		defer sess.Close()
		start := run.start
		if start == nil {
			start = workload.StartEmerging
		}
		pd, err := start(sess.Emulator, run.spec)
		if err != nil {
			return nil
		}
		sess.Env.RunUntil(pd.Stop())
		res, err := pd.Wait()
		if err != nil {
			return nil
		}
		return &swept[R]{run, collect(sess, res)}
	})
	out := make([]swept[R], 0, len(done))
	for _, d := range done {
		if d != nil {
			out = append(out, *d)
		}
	}
	return out
}
