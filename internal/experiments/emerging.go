package experiments

import (
	"repro/internal/emulator"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// FPSCell is one bar of Figs. 10/11: an emulator's mean FPS over the
// runnable apps of one category.
type FPSCell struct {
	Emulator string
	Category string
	MeanFPS  float64
	// Apps is how many of the category's apps the emulator ran (§5.3's
	// compatibility counts); 0 means the category is unsupported.
	Apps int
	// MeanLatencyMS is the mean motion-to-photon latency over runnable
	// apps (Figs. 13/14); zero for video categories where no input is
	// involved.
	MeanLatencyMS float64
}

// EmergingResult holds one machine's full emerging-app sweep: Figs. 10+13
// (high-end) or 11+14 (middle-end).
type EmergingResult struct {
	Machine string
	Cells   []FPSCell // emulator-major, category-minor order
}

// Cell returns the cell for (emulator, category).
func (r *EmergingResult) Cell(emu string, cat int) *FPSCell {
	for i := range r.Cells {
		if r.Cells[i].Emulator == emu && r.Cells[i].Category == emulator.CategoryNames[cat] {
			return &r.Cells[i]
		}
	}
	return nil
}

// MeanFPSOf averages an emulator's FPS across its runnable categories.
func (r *EmergingResult) MeanFPSOf(emu string) float64 {
	var sum float64
	var n int
	for _, c := range r.Cells {
		if c.Emulator == emu && c.Apps > 0 {
			sum += c.MeanFPS
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanLatencyOf averages motion-to-photon latency across the camera, AR,
// and livestream categories.
func (r *EmergingResult) MeanLatencyOf(emu string) float64 {
	var sum float64
	var n int
	for _, c := range r.Cells {
		if c.Emulator == emu && c.Apps > 0 && c.MeanLatencyMS > 0 {
			sum += c.MeanLatencyMS
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RunEmergingSweep reproduces Figs. 10/13 (HighEnd) or 11/14 (MidEnd): all
// six emulators across the five Table 1 categories.
func RunEmergingSweep(cfg Config, machine MachineSpec) *EmergingResult {
	emus := presets()
	var runs []appRun
	for ei, preset := range emus {
		runs = append(runs, appsOf(cfg, preset, machine, ei, cfg.AppsPerCategory, allCats()...)...)
	}
	done := sweep(cfg, runs, false, func(_ *workload.Session, r *workload.Result) *workload.Result { return r })
	out := &EmergingResult{Machine: machine.Name}
	for _, preset := range emus {
		for cat := 0; cat < emulator.NumCategories; cat++ {
			cell := FPSCell{Emulator: preset.Name, Category: emulator.CategoryNames[cat]}
			var fps float64
			var lat metrics.Distribution
			for _, d := range done {
				if d.preset.Name != preset.Name || d.cat != cat {
					continue
				}
				fps += d.out.FPS
				if d.out.Latency.Count() > 0 {
					lat.Add(d.out.Latency.Mean())
				}
				cell.Apps++
			}
			if cell.Apps > 0 {
				cell.MeanFPS = fps / float64(cell.Apps)
				cell.MeanLatencyMS = lat.Mean()
			}
			out.Cells = append(out.Cells, cell)
		}
	}
	return out
}
