package experiments

import (
	"repro/internal/workload"
)

// PopularCell is one bar of Fig. 15.
type PopularCell struct {
	Emulator string
	MeanFPS  float64
	Apps     int // runnable of the top-25 (§5.5 compatibility)
}

// PopularResult is the Fig. 15 comparison.
type PopularResult struct {
	Machine string
	Cells   []PopularCell
}

// Of returns the cell for an emulator.
func (r *PopularResult) Of(name string) *PopularCell {
	for i := range r.Cells {
		if r.Cells[i].Emulator == name {
			return &r.Cells[i]
		}
	}
	return nil
}

// RunPopular reproduces Fig. 15: the top-25 popular apps across the six
// emulators on the high-end machine.
func RunPopular(cfg Config) *PopularResult {
	mix := workload.PopularMix()
	if cfg.PopularApps < len(mix) {
		mix = mix[:cfg.PopularApps]
	}
	emus := presets()
	type job struct{ ei, app int }
	type result struct {
		fps float64
		ok  bool
	}
	var jobs []job
	for ei := range emus {
		// Compatibility: the preset runs only PopularCompat of the 25;
		// scale proportionally for smaller configs.
		runnable := emus[ei].PopularCompat * len(mix) / 25
		if runnable > len(mix) {
			runnable = len(mix)
		}
		for app := 0; app < runnable; app++ {
			jobs = append(jobs, job{ei, app})
		}
	}
	results := ParMap(cfg.EffectiveWorkers(), len(jobs), func(i int) result {
		j := jobs[i]
		kind := mix[j.app]
		sess := workload.NewSession(emus[j.ei], HighEnd.New, appSeed(cfg.Seed, 300+j.ei, int(kind), j.app))
		defer sess.Close()
		spec := workload.PopularSpec(kind, j.app, cfg.Duration)
		r, err := workload.RunPopular(sess.Emulator, kind, spec)
		if err != nil {
			return result{}
		}
		return result{fps: r.FPS, ok: true}
	})
	out := &PopularResult{Machine: HighEnd.Name}
	for ei, preset := range emus {
		cell := PopularCell{Emulator: preset.Name}
		var fps float64
		for i, j := range jobs {
			if j.ei != ei || !results[i].ok {
				continue
			}
			fps += results[i].fps
			cell.Apps++
		}
		if cell.Apps > 0 {
			cell.MeanFPS = fps / float64(cell.Apps)
		}
		out.Cells = append(out.Cells, cell)
	}
	return out
}
