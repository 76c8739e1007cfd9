package hostsim

import (
	"time"

	"repro/internal/sim"
)

// This file couples several guest machines onto one physical host
// (DESIGN.md §12): in a farm, every guest's Machine models its private view
// of the hardware, but the PCIe fabric and the DMA engine behind it are
// shared. SharedHost is the arbiter that runs at shard-group barriers — the
// shared-host-resource synchronization points of the conservative parallel
// scheduler — reads each guest's per-window PCIe draw, and applies a fair
// bandwidth share for the next window via Link.SetSharedScale.
//
// The coupling is deliberately window-grained: decisions made at barrier k
// shape window k+1. That one-window lag is what lets the shards run a whole
// window without consulting each other, and it is identical at every shard
// count, so arbitration never perturbs the determinism contract.

// SharedHostConfig parameterizes the arbiter; Resolved fills defaults.
type SharedHostConfig struct {
	// Window is the arbitration quantum and the shard group's lookahead
	// floor. Default 2 ms — far above the cross-guest propagation floor
	// (vm-boundary plus PCIe setup latency, ~85 µs on the high-end preset),
	// and fine enough that contention shifts within a frame are visible.
	Window time.Duration
	// PCIeBudget is the physical host's aggregate PCIe bandwidth in
	// bytes/second across every tracked guest link. When the guests'
	// combined demand in a window exceeds it, each guest's PCIe links are
	// scaled by budget/demand for the next window. 0 disables the cap.
	PCIeBudget float64
}

// minScale floors the applied share so a stampede cannot strangle any guest
// entirely.
const minScale = 0.25

// Resolved returns the config with zero knobs replaced by defaults.
func (c SharedHostConfig) Resolved() SharedHostConfig {
	if c.Window <= 0 {
		c.Window = 2 * time.Millisecond
	}
	return c
}

// sharedLink is one tracked guest link with its last-window counters.
type sharedLink struct {
	l         *Link
	lastBytes Bytes
	lastBusy  time.Duration
}

// SharedHost arbitrates one physical host's PCIe budget across guest
// machines. Construct with NewSharedHost, then either Attach it to a
// sim.ShardGroup or call Arbitrate from a driver's own barrier. All methods
// run on the coordinating goroutine.
type SharedHost struct {
	cfg   SharedHostConfig
	links []sharedLink

	scale    float64       // currently applied share
	crossLat time.Duration // max per-guest cross-boundary propagation floor

	// obs, when non-nil, receives one callback per arbitration window on
	// the coordinating goroutine. stats is the reused callback argument so
	// the enabled path does not allocate either.
	obs   func(*SharedWindowStats)
	stats SharedWindowStats
}

// SharedWindowStats describes one arbitration window for an observer. The
// struct is reused — observers must copy anything they keep. Every field
// derives from virtual time and per-link counters, so the sequence is
// identical at every shard count for equal seeds.
type SharedWindowStats struct {
	Prev, Now   time.Duration // window bounds (barrier instants)
	DemandBytes Bytes         // combined PCIe bytes the guests moved
	BusyTime    time.Duration // combined PCIe busy time
	Budget      float64       // configured budget, bytes/second (0 = uncapped)
	Scale       float64       // share applied for the next window
}

// SetObserver installs (or, with nil, removes) the per-window observer.
// Call before the run; Arbitrate invokes it even when the computed scale is
// unchanged, so observers see every window.
func (sh *SharedHost) SetObserver(fn func(*SharedWindowStats)) { sh.obs = fn }

// NewSharedHost builds an arbiter over the guests' PCIe links (host-to-
// device and device-to-host, in machine order, so enumeration — and
// everything derived from it — is deterministic).
func NewSharedHost(cfg SharedHostConfig, guests ...*Machine) *SharedHost {
	sh := &SharedHost{cfg: cfg.Resolved(), scale: 1}
	for _, m := range guests {
		var lat time.Duration
		if vb := m.LinkBetween(m.DRAM, m.Guest); vb != nil {
			lat += vb.Latency
		}
		var pcieLat time.Duration
		for _, l := range []*Link{m.LinkBetween(m.DRAM, m.VRAM), m.LinkBetween(m.VRAM, m.DRAM)} {
			if l == nil {
				continue
			}
			sh.links = append(sh.links, sharedLink{l: l})
			if pcieLat == 0 || l.Latency < pcieLat {
				pcieLat = l.Latency
			}
		}
		if lat+pcieLat > sh.crossLat {
			sh.crossLat = lat + pcieLat
		}
	}
	return sh
}

// Lookahead returns the conservative window the arbiter needs: its
// arbitration quantum, which by construction sits above the minimum
// cross-guest latency floor (vm-boundary service plus PCIe setup — the
// fastest any guest's action can reach shared hardware another guest sees).
func (sh *SharedHost) Lookahead() time.Duration {
	if sh.cfg.Window > sh.crossLat {
		return sh.cfg.Window
	}
	return sh.crossLat
}

// Attach registers the arbiter at the group's barriers.
func (sh *SharedHost) Attach(g *sim.ShardGroup) {
	g.AtBarrier(sh.Arbitrate)
}

// Scale returns the share currently applied to the tracked links.
func (sh *SharedHost) Scale() float64 { return sh.scale }

// Arbitrate is the barrier hook: fold the window [prev, now] of per-guest
// PCIe draw into the budget, and apply the resulting share to every tracked
// link for the next window.
func (sh *SharedHost) Arbitrate(prev, now time.Duration) {
	dt := (now - prev).Seconds()
	if dt <= 0 {
		return
	}
	var deltaBytes Bytes
	var deltaBusy time.Duration
	for i := range sh.links {
		sl := &sh.links[i]
		b, busy := sl.l.BytesMoved(), sl.l.BusyTime()
		deltaBytes += b - sl.lastBytes
		deltaBusy += busy - sl.lastBusy
		sl.lastBytes, sl.lastBusy = b, busy
	}

	scale := 1.0
	if sh.cfg.PCIeBudget > 0 {
		if demand := float64(deltaBytes) / dt; demand > sh.cfg.PCIeBudget {
			scale = sh.cfg.PCIeBudget / demand
		}
	}
	if scale < minScale {
		scale = minScale
	}
	if sh.obs != nil {
		sh.stats = SharedWindowStats{
			Prev: prev, Now: now,
			DemandBytes: deltaBytes, BusyTime: deltaBusy,
			Budget: sh.cfg.PCIeBudget, Scale: scale,
		}
		sh.obs(&sh.stats)
	}
	if scale == sh.scale {
		return
	}
	sh.scale = scale
	for i := range sh.links {
		sh.links[i].l.SetSharedScale(scale)
	}
}
