// Command vsocsim runs one app on one emulator on one machine and prints
// the result plus the SVM framework's internal statistics — the quickest way
// to poke at the system.
//
// Usage:
//
//	vsocsim [-emulator vsoc|gae|qemu|ldplayer|bluestacks|trinity|vsoc-noprefetch|vsoc-nofence]
//	        [-machine highend|midend|pixel]
//	        [-app uhd|360|camera|ar|livestream|heavy3d|ui|social]
//	        [-duration 30s] [-seed 1] [-v] [-shards N | -mon]
//	        [-monout mon.json]
//
// With -shards N the command switches to farm mode: N guest instances of
// the app run on one physical host under the conservative parallel
// scheduler (DESIGN.md §12), one shard per guest, with the shared-host
// arbiter coupling their PCIe links at window barriers. Per-guest results
// are deterministic — identical at every N — while the trailing events/s
// line measures the host's parallel throughput. Every farm is watched by
// the fleet/scheduler observability layer (DESIGN.md §13), which appends
// the per-tenant QoS/SLO fleet report and the wall-clock barrier-stall
// attribution table, and by the streaming telemetry engine (DESIGN.md
// §15), whose windows seal at shard barriers, so its report is
// byte-identical at every -shards count. Both are observe-only.
//
// -mon runs one guest with the streaming telemetry engine attached:
// windowed virtual-time rollups, online SLO/anomaly detectors, and the
// incident flight recorder, with the run driven at window grain (emerging
// apps only). -monout writes the machine-readable monitor report of a -mon
// or farm run for cmd/vsocmon to render. A flag the run would ignore
// (-mon with -shards, -monout without -mon or -shards), a non-positive
// -duration and a negative -shards are usage errors, exit 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/emulator"
	"repro/internal/experiments"
	"repro/internal/hostsim"
	"repro/internal/tsmon"
	"repro/internal/workload"
)

var presetsByName = map[string]func() emulator.Preset{
	"vsoc":            emulator.VSoC,
	"gae":             emulator.GAE,
	"qemu":            emulator.QEMUKVM,
	"ldplayer":        emulator.LDPlayer,
	"bluestacks":      emulator.Bluestacks,
	"trinity":         emulator.Trinity,
	"vsoc-noprefetch": emulator.VSoCNoPrefetch,
	"vsoc-nofence":    emulator.VSoCNoFence,
	"native":          emulator.NativeDevice,
}

var machinesByName = map[string]experiments.MachineSpec{
	"highend": experiments.HighEnd,
	"midend":  experiments.MidEnd,
	"pixel":   experiments.Pixel,
}

func main() {
	emuName := flag.String("emulator", "vsoc", "emulator preset")
	machName := flag.String("machine", "highend", "machine preset")
	appName := flag.String("app", "uhd", "app kind (uhd, 360, camera, ar, livestream, heavy3d, ui, social)")
	duration := flag.Duration("duration", 30*time.Second, "simulated duration")
	seed := flag.Int64("seed", 1, "simulation seed")
	verbose := flag.Bool("v", false, "print SVM internals")
	fetch := flag.Bool("fetch", false, "enable chunked, DMA-promoted demand fetches (DESIGN.md §11)")
	shards := flag.Int("shards", 0, "farm mode: run N guest instances under the sharded scheduler (DESIGN.md §12) with the fleet report (§13) and monitor (§15) attached; 0 = single instance")
	mon := flag.Bool("mon", false, "single mode: attach the streaming telemetry engine (DESIGN.md §15): windowed rollups, online detectors, incident flight recorder")
	monOut := flag.String("monout", "", "write the machine-readable monitor report (for cmd/vsocmon) of a -mon or -shards run to this path")
	flag.Parse()
	if err := checkFlags(*duration, *shards, *mon, *monOut); err != nil {
		fmt.Fprintln(os.Stderr, "vsocsim:", err)
		flag.Usage()
		os.Exit(2)
	}

	presetFn, ok := presetsByName[strings.ToLower(*emuName)]
	if !ok {
		die("unknown emulator %q", *emuName)
	}
	machine, ok := machinesByName[strings.ToLower(*machName)]
	if !ok {
		die("unknown machine %q", *machName)
	}

	preset := presetFn()
	if *fetch {
		preset.Fetch = hostsim.EnabledFetch()
	}
	if *shards > 0 {
		runFarm(preset, machine, strings.ToLower(*appName), *duration, *seed, *shards, *monOut)
		return
	}
	if *mon {
		runMonitoredSingle(preset, machine, strings.ToLower(*appName), *duration, *seed, *monOut)
		return
	}
	sess := workload.NewSession(preset, machine.New, *seed)
	defer sess.Close()

	var pd *workload.Pending
	var err error
	app := strings.ToLower(*appName)
	if kind, ok := popularApps[app]; ok {
		pd, err = workload.StartPopular(sess.Emulator, kind, workload.PopularSpec(kind, 0, *duration))
	} else if cat, ok := emergingApps[app]; ok {
		pd, err = workload.StartEmerging(sess.Emulator, workload.DefaultSpec(cat, 0, *duration))
	} else {
		die("unknown app %q", *appName)
	}
	if err != nil {
		die("run failed: %v", err)
	}
	sess.Env.RunUntil(pd.Stop())
	r, err := pd.Wait()
	if err != nil {
		die("run failed: %v", err)
	}

	fmt.Println(r)
	fmt.Printf("frames=%d drops=%d (stale %d, deadline %d)\n",
		r.Frames, r.Drops, r.StaleDrops, r.DeadlineDrops)
	if r.Latency.Count() > 0 {
		fmt.Printf("motion-to-photon: mean %.1f ms, p95 %.1f ms, p99 %.1f ms\n",
			r.Latency.Mean(), r.Latency.Percentile(95), r.Latency.Percentile(99))
	}

	if *verbose {
		st := sess.SVMStats()
		fmt.Printf("\nSVM framework (%s protocol):\n", sess.Emulator.Manager.Kind())
		fmt.Printf("  accesses            %d (%d writes, %d reads)\n", st.Accesses, st.Writes, st.Reads)
		fmt.Printf("  HAL access latency  %.2f ms mean\n", st.HALAccessLatency.Mean())
		fmt.Printf("  all access latency  %.2f ms mean, %.2f p99\n",
			st.AccessLatency.Mean(), st.AccessLatency.Percentile(99))
		fmt.Printf("  coherence           %.2f ms mean over %d copies (host-direct %.0f%%)\n",
			st.CoherenceCost.Mean(), st.CoherenceCost.Count(), st.DirectShare()*100)
		fmt.Printf("  prefetch            %d hits, %d waits, %d demand fetches\n",
			st.PrefetchHits, st.PrefetchWaits, st.DemandFetches)
		if st.ChunkedFetches > 0 {
			fmt.Printf("  chunked fetches     %d (%d reader joins)\n",
				st.ChunkedFetches, st.FetchJoins)
		}
		fmt.Printf("  prediction          %.1f%% over %d\n", st.PredictionAccuracy()*100, st.PredTotal)
		fmt.Printf("  slack intervals     %.1f ms mean over %d\n",
			st.SlackIntervals.Mean(), st.SlackIntervals.Count())
		fmt.Printf("  bytes               %d MiB accessed, %d MiB coherence, %d MiB wasted\n",
			st.BytesAccessed>>20, st.BytesCoherence>>20, st.BytesWasted>>20)
		fmt.Printf("  throughput          %.2f GB/s\n", st.Throughput(*duration)/1e9)
		fmt.Printf("  fence table         peak %d/%d slots, %d allocs, %d recycles\n",
			sess.Emulator.Fences.Peak(), sess.Emulator.Fences.Capacity(),
			sess.Emulator.Fences.Allocs(), sess.Emulator.Fences.Recycles())
		if th := sess.Machine.Thermal; th != nil {
			fmt.Printf("  thermal             %.0f C, throttled=%v\n", th.Temperature(), th.Throttled())
		}
	}
}

// checkFlags rejects flag values no run can use and flag combinations the
// run would silently ignore.
func checkFlags(duration time.Duration, shards int, mon bool, monOut string) error {
	if duration <= 0 {
		return fmt.Errorf("-duration must be positive, got %v", duration)
	}
	if shards < 0 {
		return fmt.Errorf("-shards must not be negative, got %d", shards)
	}
	if mon && shards > 0 {
		return errors.New("-mon is the single-guest monitored run; farm mode (-shards N) always monitors")
	}
	if monOut != "" && !mon && shards == 0 {
		return errors.New("-monout needs -mon or farm mode (-shards N)")
	}
	return nil
}

// emergingApps maps the emerging app names onto their Table 1 category.
// Only these can be monitored or farmed: a farm or monitor tenant's QoS
// contract (experiments.FarmTenant's FPS floor and motion-to-photon SLO) is
// set per Table 1 category, and the popular-app kinds have none.
var emergingApps = map[string]int{
	"uhd":        emulator.CatUHDVideo,
	"360":        emulator.Cat360Video,
	"camera":     emulator.CatCamera,
	"ar":         emulator.CatAR,
	"livestream": emulator.CatLivestream,
}

// popularApps maps the popular app names onto their §5.5 profile kind.
var popularApps = map[string]workload.PopularKind{
	"heavy3d": workload.PopularHeavy3D,
	"ui":      workload.PopularUI,
	"social":  workload.PopularSocialVideo,
}

// finishMonitor prints the finalized monitor's report and writes the
// machine-readable file when requested.
func finishMonitor(mon *tsmon.Monitor, monOut string) {
	rep := mon.Report()
	fmt.Println()
	fmt.Print(rep.FormatText())
	if monOut != "" {
		if err := rep.WriteJSONFile(monOut); err != nil {
			die("write monitor report: %v", err)
		}
		fmt.Printf("monitor report written to %s\n", monOut)
	}
}

// runMonitoredSingle runs one guest with the streaming telemetry engine
// attached, driving the simulation at window grain so rollups seal as
// virtual time passes each boundary. Emerging apps only: the monitor
// tenant's QoS contract is per Table 1 category (see emergingApps).
func runMonitoredSingle(preset emulator.Preset, machine experiments.MachineSpec, app string, dur time.Duration, seed int64, monOut string) {
	cat, ok := emergingApps[app]
	if !ok {
		die("-mon supports the emerging apps only (uhd, 360, camera, ar, livestream)")
	}
	sess := workload.NewSession(preset, machine.New, seed)
	defer sess.Close()
	mon := tsmon.New(tsmon.Config{Tenants: []tsmon.TenantConfig{experiments.FarmTenant(0, cat)}})
	tn := mon.Tenant(0)
	experiments.ObserveGuest(sess, tn)
	experiments.MonitorProbes(tn, sess)
	pd, err := workload.StartEmerging(sess.Emulator, workload.DefaultSpec(cat, 0, dur))
	if err != nil {
		die("run failed: %v", err)
	}
	sess.Env.RunUntilEvery(pd.Stop(), mon.WindowWidth(), mon.Seal)
	r, err := pd.Wait()
	if err != nil {
		die("run failed: %v", err)
	}
	fmt.Println(r)
	fmt.Printf("frames=%d drops=%d (stale %d, deadline %d)\n",
		r.Frames, r.Drops, r.StaleDrops, r.DeadlineDrops)
	mon.Finalize(pd.Stop())
	finishMonitor(mon, monOut)
}

// runFarm runs n guest instances of the app as a sharded farm: one
// environment and one shard per guest, coupled through the shared-host
// arbiter at window barriers.
func runFarm(preset emulator.Preset, machine experiments.MachineSpec, app string, dur time.Duration, seed int64, n int, monOut string) {
	cat, ok := emergingApps[app]
	if !ok {
		die("-shards farm mode supports the emerging apps only (uhd, 360, camera, ar, livestream)")
	}
	cats := make([]int, n)
	for g := range cats {
		cats[g] = cat
	}
	f, err := experiments.NewFarm(experiments.FarmConfig{
		Preset: preset, Machine: machine, Categories: cats, Seed: seed, Duration: dur,
		Shards: n,
	})
	if err != nil {
		die("%v", err)
	}
	defer f.Close()
	results, err := f.Run()
	if err != nil {
		die("%v", err)
	}
	for g, r := range results {
		fmt.Printf("guest %d: %v\n", g, r)
	}
	events := f.Group.ExecutedEvents()
	fmt.Printf("farm: %d guests on %d shards, lookahead %v, %d events in %.2fs wall (%.0f events/s)\n",
		n, f.Group.Shards(), f.Group.Lookahead(), events, f.Wall.Seconds(),
		float64(events)/f.Wall.Seconds())
	fmt.Println()
	fmt.Print(f.Fleet.Report(f.Stop).FormatText())
	fmt.Println()
	fmt.Print(f.Fleet.StallReport().FormatText())
	finishMonitor(f.Monitor, monOut)
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
