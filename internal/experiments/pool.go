package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The Run* drivers all share one shape: a set of (machine, emulator,
// category, app) tuples, each simulating one app session on a private
// sim.Env and folding its statistics into the result. Most drivers list
// their tuples as appRuns and hand them to sweep (sweep.go). The sessions
// never touch shared state — every package-level variable they read
// (presets, name tables, workload mixes) is immutable — so the tuples can
// run on any goroutine in any order. Determinism is preserved by separating
// execution from aggregation: ParMap stores each tuple's result at its tuple
// index, and the driver then merges the slice in the original loop order.
// The output is byte-identical to the serial path; only wall-clock time
// changes.

// EffectiveWorkers reports the concurrency the Run* drivers use for this
// configuration: Config.Workers, else one worker per CPU.
func (c Config) EffectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ParMap evaluates fn(0) … fn(n-1) on at most workers goroutines and
// returns the results indexed by argument. fn must derive everything from
// its index (no iteration-order dependence); callers then merge out[0..n-1]
// sequentially to get serial-identical aggregates. workers <= 1 degenerates
// to a plain loop on the calling goroutine. Besides the experiment drivers,
// the internal/tune search evaluates candidate batches through it.
func ParMap[R any](workers, n int, fn func(int) R) []R {
	out := make([]R, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}
