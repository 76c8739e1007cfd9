package experiments

import (
	"repro/internal/emulator"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// AblationResult is Fig. 12: per-category FPS of full vSoC against the
// no-prefetch (write-invalidate) and no-fence (atomic ordering) variants on
// the high-end machine.
type AblationResult struct {
	Categories []string
	Full       []float64
	NoPrefetch []float64
	NoFence    []float64
}

// AvgDropNoPrefetch returns the mean relative FPS drop with the prefetch
// engine disabled (the paper reports 30% average, 66% for video).
func (r *AblationResult) AvgDropNoPrefetch() float64 { return avgDrop(r.Full, r.NoPrefetch) }

// AvgDropNoFence returns the mean relative FPS drop with fences disabled
// (the paper reports 11%).
func (r *AblationResult) AvgDropNoFence() float64 { return avgDrop(r.Full, r.NoFence) }

// VideoDropNoPrefetch returns the relative FPS drop on the two video
// categories with prefetch disabled (the paper's "staggering 66%").
func (r *AblationResult) VideoDropNoPrefetch() float64 {
	return avgDrop(r.Full[:2], r.NoPrefetch[:2])
}

func avgDrop(full, ablated []float64) float64 {
	var sum float64
	var n int
	for i := range full {
		if full[i] > 0 {
			sum += (full[i] - ablated[i]) / full[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RunAblation reproduces Fig. 12 on the high-end machine. The
// (variant, category, app) sessions fan out across Config.Workers and are
// averaged in loop order.
func RunAblation(cfg Config) *AblationResult {
	variants := []emulator.Preset{
		emulator.VSoC(), emulator.VSoCNoPrefetch(), emulator.VSoCNoFence(),
	}
	var runs []appRun
	for vi, v := range variants {
		runs = append(runs, appsOf(cfg, v, HighEnd, 100+vi, cfg.AppsPerCategory, allCats()...)...)
	}
	done := sweep(cfg, runs, false, fpsOf)
	out := &AblationResult{}
	for cat := 0; cat < emulator.NumCategories; cat++ {
		out.Categories = append(out.Categories, emulator.CategoryNames[cat])
	}
	cols := []*[]float64{&out.Full, &out.NoPrefetch, &out.NoFence}
	for vi, v := range variants {
		for cat := 0; cat < emulator.NumCategories; cat++ {
			var fps float64
			n := 0
			for _, d := range done {
				if d.preset.Name != v.Name || d.cat != cat {
					continue
				}
				fps += d.out
				n++
			}
			mean := 0.0
			if n > 0 {
				mean = fps / float64(n)
			}
			*cols[vi] = append(*cols[vi], mean)
		}
	}
	return out
}

// PopularAblationResult is the §5.5 breakdown: how many of the popular apps
// lose FPS under each ablation and the average drop.
type PopularAblationResult struct {
	Apps               int
	FullMean           float64
	NoPrefetchMean     float64
	NoFenceMean        float64
	AppsDropNoPrefetch int
	AppsDropNoFence    int
}

// RunPopularAblation reproduces the §5.5 ablation numbers (paper: 80% and
// 96% of apps drop; average FPS -6% and -8%).
func RunPopularAblation(cfg Config) *PopularAblationResult {
	mix := workload.PopularMix()
	if cfg.PopularApps < len(mix) {
		mix = mix[:cfg.PopularApps]
	}
	variants := []emulator.Preset{
		emulator.VSoC(), emulator.VSoCNoPrefetch(), emulator.VSoCNoFence(),
	}
	var runs []appRun
	for vi, v := range variants {
		runs = append(runs, popularApps(cfg, v, 200+vi, mix)...)
	}
	done := sweep(cfg, runs, false, fpsOf)
	// A run that fails scores 0 FPS at its (variant, app) slot.
	fps := make([][]float64, len(variants))
	for vi, v := range variants {
		fps[vi] = make([]float64, len(mix))
		for _, d := range done {
			if d.preset.Name == v.Name {
				fps[vi][d.app] = d.out
			}
		}
	}
	out := &PopularAblationResult{Apps: len(mix)}
	var d metrics.Distribution
	for _, v := range fps[0] {
		d.Add(v)
	}
	out.FullMean = d.Mean()
	var np, nf metrics.Distribution
	for i := range fps[0] {
		np.Add(fps[1][i])
		nf.Add(fps[2][i])
		const eps = 0.5 // below half an FPS is measurement noise
		if fps[0][i]-fps[1][i] > eps {
			out.AppsDropNoPrefetch++
		}
		if fps[0][i]-fps[2][i] > eps {
			out.AppsDropNoFence++
		}
	}
	out.NoPrefetchMean = np.Mean()
	out.NoFenceMean = nf.Mean()
	return out
}
