package experiments

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/emulator"
	"repro/internal/fleetobs"
	"repro/internal/hostsim"
	"repro/internal/tsmon"
	"repro/internal/workload"
)

// TestGuestObserversObserveOnly attaches a fleet tenant and a monitor
// tenant to one guest through ObserveGuest's tee, registers the monitor's
// probes and drives the session at window grain, sealing as it goes — the
// wiring every farm runs. The guest's result must equal a plain equal-seed
// session's: neither observer nor the seal points perturb the simulation.
func TestGuestObserversObserveOnly(t *testing.T) {
	const dur = 2 * time.Second
	cat := emulator.CatCamera
	run := func(observe bool) (*workload.Result, *fleetobs.Fleet, *tsmon.Monitor) {
		sess := workload.NewSession(emulator.VSoC(), HighEnd.New, 1)
		defer sess.Close()
		tenants := []fleetobs.TenantConfig{FarmTenant(0, cat)}
		fl := fleetobs.New(fleetobs.Config{Tenants: tenants})
		mon := tsmon.New(tsmon.Config{Tenants: tenants})
		if observe {
			MonitorProbes(mon.Tenant(0), sess)
			ObserveGuest(sess, fl.Tenant(0), mon.Tenant(0))
		}
		pd, err := workload.StartEmerging(sess.Emulator, workload.DefaultSpec(cat, 0, dur))
		if err != nil {
			t.Fatal(err)
		}
		if observe {
			sess.Env.RunUntilEvery(pd.Stop(), mon.WindowWidth(), mon.Seal)
			fl.Finalize(pd.Stop())
			mon.Finalize(pd.Stop())
		} else {
			sess.Env.RunUntil(pd.Stop())
		}
		r, err := pd.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return r, fl, mon
	}
	plain, _, _ := run(false)
	observed, fl, mon := run(true)
	if !reflect.DeepEqual(observed, plain) {
		t.Errorf("observers perturbed the simulation:\n on  %v\n off %v", observed, plain)
	}
	// Both observers must actually have been fed, or the check is vacuous.
	rep := fl.Report(dur)
	if rep.Tenants[0].Frames == 0 || rep.Fleet.FetchP99MS <= 0 {
		t.Errorf("fleet tenant saw no frames or fetches: %+v", rep.Tenants[0])
	}
	var frames uint32
	for _, w := range mon.Windows() {
		frames += w.Tenants[0].Frames
	}
	if frames == 0 {
		t.Errorf("monitor tenant saw no frames in %d window(s)", len(mon.Windows()))
	}
}

// mustJSON renders a fleet report, failing the test on error.
func mustJSON(t *testing.T, r *fleetobs.Report) []byte {
	t.Helper()
	js, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestFarmSameCategoryShardInvariant is the vsocsim -shards shape: N
// copies of one category with chunked fetches on. Per-guest results and
// the fleet report are byte-identical whether the guests share one shard
// or run one per shard.
func TestFarmSameCategoryShardInvariant(t *testing.T) {
	preset := emulator.VSoC()
	preset.Fetch = hostsim.EnabledFetch()
	cats := []int{emulator.CatCamera, emulator.CatCamera, emulator.CatCamera}
	run := func(shards int) ([]*workload.Result, []byte) {
		f, err := NewFarm(FarmConfig{Preset: preset, Machine: HighEnd, Categories: cats,
			Seed: 1, Duration: 2 * time.Second, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		results, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return results, mustJSON(t, f.Fleet.Report(f.Stop))
	}
	serial, serialFleet := run(1)
	sharded, shardedFleet := run(len(cats))
	if len(serial) != len(cats) || !reflect.DeepEqual(sharded, serial) {
		t.Errorf("per-guest results diverged at %d shards:\n got %v\nwant %v", len(cats), sharded, serial)
	}
	if !bytes.Equal(shardedFleet, serialFleet) {
		t.Errorf("fleet report JSON diverged at %d shards", len(cats))
	}
}

// TestNewFarmStartErrorReleasesSessions asks for a camera guest on a
// preset without a camera: NewFarm must report which guest failed and
// close every session it had already built, leaving no goroutines behind.
func TestNewFarmStartErrorReleasesSessions(t *testing.T) {
	before := runtime.NumGoroutine()
	cats := []int{emulator.CatUHDVideo, emulator.CatUHDVideo, emulator.CatCamera}
	_, err := NewFarm(FarmConfig{Preset: emulator.Trinity(), Machine: HighEnd, Categories: cats,
		Seed: 1, Duration: time.Second, Shards: 2})
	if err == nil || !strings.Contains(err.Error(), "guest 2") || !strings.Contains(err.Error(), "camera") {
		t.Fatalf("NewFarm error = %v, want guest 2 failing for lack of a camera", err)
	}
	// Goroutines stopped by Close may still be exiting; poll until they are gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.GC(); runtime.NumGoroutine() > before; runtime.GC() {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before NewFarm, %d after its error", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
