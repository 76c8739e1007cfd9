package experiments

import (
	"fmt"
	"time"

	"repro/internal/emulator"
	"repro/internal/fleetobs"
	"repro/internal/hostsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tsmon"
	"repro/internal/workload"
)

// farmPCIeBudget is the physical host's aggregate PCIe bandwidth (bytes/s)
// shared by a farm's guests. It sits below the sum of the guests' private
// link rates, so a four-guest stampede is arbitrated down while a lone
// guest never notices.
const farmPCIeBudget = 6e9

// FarmTenant maps guest g running Table 1 category cat onto its QoS
// contract, shared by the fleet and monitor layers: a 30 FPS floor (half
// the 60 Hz content rate) for everyone, plus a motion-to-photon SLO for the
// categories whose sink measures latency (camera- and network-fed
// pipelines).
func FarmTenant(g, cat int) fleetobs.TenantConfig {
	tc := fleetobs.TenantConfig{
		Name:     fmt.Sprintf("g%d:%s", g, emulator.CategoryNames[cat]),
		FPSFloor: 30,
	}
	switch cat {
	case emulator.CatCamera, emulator.CatAR:
		tc.M2PSLO = 100 * time.Millisecond
	case emulator.CatLivestream:
		tc.M2PSLO = 250 * time.Millisecond
	}
	return tc
}

// GuestObserver is one per-guest observability feed: the emulator frame
// hook plus the svm demand-fetch hook. fleetobs.Tenant and tsmon.Tenant
// both implement it.
type GuestObserver interface {
	emulator.FrameObserver
	DemandFetch(at, latency time.Duration)
}

// ObserveGuest attaches observers to a session's frame and demand-fetch
// hooks: one directly, several through a tee in argument order. The hooks
// are observe-only; they schedule no simulation events.
func ObserveGuest(sess *workload.Session, observers ...GuestObserver) {
	if len(observers) == 0 {
		return
	}
	o := observers[0]
	if len(observers) > 1 {
		o = guestTee(observers)
	}
	sess.Emulator.FrameObs = o
	sess.Emulator.Manager.SetFetchObserver(o.DemandFetch)
}

// guestTee fans one guest's telemetry out to several observers.
type guestTee []GuestObserver

func (t guestTee) FramePresented(at time.Duration) {
	for _, o := range t {
		o.FramePresented(at)
	}
}

func (t guestTee) FrameDropped(at time.Duration) {
	for _, o := range t {
		o.FrameDropped(at)
	}
}

func (t guestTee) MotionToPhoton(at, latency time.Duration) {
	for _, o := range t {
		o.MotionToPhoton(at, latency)
	}
}

func (t guestTee) DemandFetch(at, latency time.Duration) {
	for _, o := range t {
		o.DemandFetch(at, latency)
	}
}

// FarmConfig declares a farm (DESIGN.md §12): one guest per entry of
// Categories, run for Duration on Shards shards. Every farm is watched by
// the fleet layer (§13, with a tracer when Trace is set) and the monitor
// (§15); both are observe-only.
type FarmConfig struct {
	Preset     emulator.Preset
	Machine    MachineSpec
	Categories []int
	Seed       int64
	Duration   time.Duration
	Shards     int
	Trace      bool
}

// Farm is several guests sharing one physical host: a session and sim.Env
// per guest, a hostsim.SharedHost arbitrating the aggregate PCIe budget at
// window barriers, and a sim.ShardGroup advancing the environments in
// lookahead-bounded windows. Sessions may be reached between NewFarm and
// Run, e.g. to schedule faults into a guest.
type Farm struct {
	Sessions []*workload.Session
	Group    *sim.ShardGroup
	Fleet    *fleetobs.Fleet
	Monitor  *tsmon.Monitor
	Stop     time.Duration // the last guest's stop time: Run's horizon
	Windows  int           // barriers passed
	Wall     time.Duration // Run's wall-clock time

	pend []*workload.Pending
}

// NewFarm builds a farm: one session per guest, seeded from the farm seed,
// with its fleet and monitor tenants attached and its app started; then
// the shared host and the shard group. A guest that cannot start (a
// category the preset lacks) is an error, and every session already built
// is closed.
func NewFarm(cfg FarmConfig) (*Farm, error) {
	tenants := make([]fleetobs.TenantConfig, len(cfg.Categories))
	for g, cat := range cfg.Categories {
		tenants[g] = FarmTenant(g, cat)
	}
	fcfg := fleetobs.Config{Registry: obs.NewRegistry(), Tenants: tenants}
	if cfg.Trace {
		fcfg.Tracer = obs.NewTracer()
	}
	f := &Farm{Fleet: fleetobs.New(fcfg), Monitor: tsmon.New(tsmon.Config{Tenants: tenants})}

	var envs []*sim.Env
	var machs []*hostsim.Machine
	for g, cat := range cfg.Categories {
		sess := workload.NewSession(cfg.Preset, cfg.Machine.New, appSeed(cfg.Seed, 700+g, cat, 0))
		f.Sessions = append(f.Sessions, sess)
		envs, machs = append(envs, sess.Env), append(machs, sess.Machine)
		mt := f.Monitor.Tenant(g)
		MonitorProbes(mt, sess)
		ObserveGuest(sess, f.Fleet.Tenant(g), mt)
		pd, err := workload.StartEmerging(sess.Emulator, workload.DefaultSpec(cat, g, cfg.Duration))
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("farm guest %d: %w", g, err)
		}
		f.pend = append(f.pend, pd)
		f.Stop = max(f.Stop, pd.Stop())
	}

	sh := hostsim.NewSharedHost(hostsim.SharedHostConfig{PCIeBudget: farmPCIeBudget}, machs...)
	f.Group = sim.NewShardGroup(sh.Lookahead(), cfg.Shards, envs...)
	sh.Attach(f.Group)
	f.Group.AtBarrier(func(prev, now time.Duration) { f.Windows++ })
	f.Fleet.Attach(f.Group, sh)
	// Barriers are the farm's global seal points: at each one every guest
	// has advanced to `now`, so all samples below it are recorded.
	f.Group.AtBarrier(func(prev, now time.Duration) { f.Monitor.Seal(now) })
	return f, nil
}

// Run drives the farm to Stop, finalizes the fleet and monitor, and
// returns each guest's result in guest order.
func (f *Farm) Run() ([]*workload.Result, error) {
	start := time.Now()
	f.Group.RunUntil(f.Stop)
	f.Wall = time.Since(start)
	f.Fleet.Finalize(f.Stop)
	f.Monitor.Finalize(f.Stop)
	results := make([]*workload.Result, len(f.pend))
	for g, pd := range f.pend {
		r, err := pd.Wait()
		if err != nil {
			return nil, fmt.Errorf("farm guest %d: %w", g, err)
		}
		results[g] = r
	}
	return results, nil
}

// Close releases the shard group's workers and every guest session.
func (f *Farm) Close() {
	if f.Group != nil {
		f.Group.Close()
	}
	for _, s := range f.Sessions {
		s.Close()
	}
}
