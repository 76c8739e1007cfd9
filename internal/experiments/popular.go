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
	var runs []appRun
	for ei, preset := range emus {
		// Compatibility: the preset runs only PopularCompat of the 25;
		// scale proportionally for smaller configs.
		runnable := min(preset.PopularCompat*len(mix)/25, len(mix))
		runs = append(runs, popularApps(cfg, preset, 300+ei, mix[:runnable])...)
	}
	done := sweep(cfg, runs, false, fpsOf)
	out := &PopularResult{Machine: HighEnd.Name}
	for _, preset := range emus {
		cell := PopularCell{Emulator: preset.Name}
		var fps float64
		for _, d := range done {
			if d.preset.Name != preset.Name {
				continue
			}
			fps += d.out
			cell.Apps++
		}
		if cell.Apps > 0 {
			cell.MeanFPS = fps / float64(cell.Apps)
		}
		out.Cells = append(out.Cells, cell)
	}
	return out
}
