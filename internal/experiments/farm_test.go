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
	"repro/internal/workload"
)

// TestFarmObserversComposeObserveOnly runs the shardscale farm with the
// fleet and the monitor attached together and checks each layer against a
// run with it alone: composing them through one tee changes neither
// report, and neither changes the simulation.
func TestFarmObserversComposeObserveOnly(t *testing.T) {
	cfg := Config{Duration: 2 * time.Second, Seed: 1, Shards: 2}
	plain := RunShardScale(cfg)
	cfg.Fleet = true
	fleetOnly := RunShardScale(cfg)
	cfg.Monitor = true
	both := RunShardScale(cfg)
	cfg.Fleet = false
	monOnly := RunShardScale(cfg)
	if len(both.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (shards 1, 2)", len(both.Rows))
	}
	for i, row := range both.Rows {
		if got, want := projectRow(row), projectRow(plain.Rows[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: observers perturbed the simulation:\n on  %+v\n off %+v", row.Shards, got, want)
		}
		if got, want := mustJSON(t, row.Fleet), mustJSON(t, fleetOnly.Rows[i].Fleet); !bytes.Equal(got, want) {
			t.Errorf("shards=%d: fleet report with the monitor attached differs from fleet-only", row.Shards)
		}
		if got, want := row.Mon.Digest, monOnly.Rows[i].Mon.Digest; got != want {
			t.Errorf("shards=%d: monitor digest %s with the fleet attached, %s monitor-only", row.Shards, got, want)
		}
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
			Seed: 1, Duration: 2 * time.Second, Shards: shards, Fleet: true})
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
		Seed: 1, Duration: time.Second, Shards: 2, Fleet: true, Monitor: true})
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
