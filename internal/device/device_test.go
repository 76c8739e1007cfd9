package device

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fence"
	"repro/internal/hostsim"
	"repro/internal/hypergraph"
	"repro/internal/sim"
	"repro/internal/svm"
)

const ms = time.Millisecond

const (
	vCodec hypergraph.NodeID = iota
	vGPU
)
const (
	pCodecHW hypergraph.NodeID = iota
	pGPU
	pCPU
)

type rig struct {
	env   *sim.Env
	mach  *hostsim.Machine
	mgr   *svm.Manager
	ftab  *fence.Table
	codec *Device
	gpu   *Device
}

func newRig(t *testing.T, mode OrderingMode) *rig {
	return newRigSeeded(t, mode, 3)
}

func newRigSeeded(t *testing.T, mode OrderingMode, seed int64) *rig {
	cfg := DefaultConfig()
	cfg.Mode = mode
	return newRigCfg(t, cfg, seed)
}

func newRigCfg(t *testing.T, cfg Config, seed int64) *rig {
	t.Helper()
	return newRigSVM(t, cfg, svm.DefaultConfig(), seed)
}

func newRigSVM(t *testing.T, cfg Config, svmCfg svm.Config, seed int64) *rig {
	t.Helper()
	env := sim.NewEnv(seed)
	mach := hostsim.HighEndDesktop(env)
	mgr := svm.NewManager(env, mach, svmCfg)
	mgr.RegisterVirtualDevice(vCodec, "vcodec")
	mgr.RegisterVirtualDevice(vGPU, "vgpu")
	mgr.RegisterPhysicalDevice(pCodecHW, "codec-hw", mach.DRAM)
	mgr.RegisterPhysicalDevice(pGPU, "gpu", mach.VRAM)
	mgr.RegisterPhysicalDevice(pCPU, "cpu", mach.DRAM)

	ftab := fence.NewTable(env)
	rg := &rig{
		env:   env,
		mach:  mach,
		mgr:   mgr,
		ftab:  ftab,
		codec: New(env, mgr, "codec", vCodec, pCodecHW, mach.CPU, mach.DRAM, ftab, cfg),
		gpu:   New(env, mgr, "gpu", vGPU, pGPU, mach.GPU, mach.VRAM, ftab, cfg),
	}
	t.Cleanup(env.Close)
	return rg
}

func TestFenceModeDriverDoesNotBlock(t *testing.T) {
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(16 * hostsim.MiB)
	var submitTook time.Duration
	rg.env.Spawn("driver", func(p *sim.Proc) {
		start := p.Now()
		rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: 10 * ms})
		submitTook = p.Now() - start
	})
	rg.env.RunUntil(time.Second)
	if submitTook > ms {
		t.Fatalf("fence-mode submit blocked %v, want << 10ms host exec", submitTook)
	}
	if rg.codec.Stats().Executed != 1 {
		t.Fatalf("Executed = %d, want 1", rg.codec.Stats().Executed)
	}
}

func TestAtomicModeDriverBlocksForHostExec(t *testing.T) {
	rg := newRig(t, ModeAtomic)
	r, _ := rg.mgr.Alloc(hostsim.MiB)
	var submitTook time.Duration
	rg.env.Spawn("driver", func(p *sim.Proc) {
		start := p.Now()
		rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: 10 * ms})
		submitTook = p.Now() - start
	})
	rg.env.RunUntil(time.Second)
	if submitTook < 10*ms {
		t.Fatalf("atomic submit took %v, want >= 10ms", submitTook)
	}
	if rg.codec.Stats().AtomicOps != 1 {
		t.Fatalf("AtomicOps = %d, want 1", rg.codec.Stats().AtomicOps)
	}
}

func TestEventDrivenReadyAfterIRQ(t *testing.T) {
	rg := newRig(t, ModeEventDriven)
	r, _ := rg.mgr.Alloc(hostsim.MiB)
	var submitTook, readyAt time.Duration
	rg.env.Spawn("driver", func(p *sim.Proc) {
		start := p.Now()
		tk := rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: 10 * ms})
		submitTook = p.Now() - start
		tk.Ready.Wait(p)
		readyAt = p.Now()
	})
	rg.env.RunUntil(time.Second)
	if submitTook > ms {
		t.Fatalf("event-driven submit blocked %v", submitTook)
	}
	if readyAt < 10*ms {
		t.Fatalf("Ready fired at %v, want after 10ms host exec + IRQ", readyAt)
	}
	if rg.codec.Stats().IRQs != 1 {
		t.Fatalf("IRQs = %d, want 1", rg.codec.Stats().IRQs)
	}
}

func TestFenceOrdersCrossDeviceWriteRead(t *testing.T) {
	// Fig. 9c: codec write (slow) then GPU read submitted immediately.
	// Without the wait fence the read would execute first; with it, the
	// read must start after the write commits.
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(16 * hostsim.MiB)
	var readDone time.Duration
	rg.env.Spawn("driver", func(p *sim.Proc) {
		w := rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: 20 * ms})
		rd := rg.gpu.Submit(p, Op{Kind: OpRead, Region: r.ID, Exec: 1 * ms, After: w})
		rd.Ready.Wait(p)
		readDone = p.Now()
	})
	rg.env.RunUntil(time.Second)
	if readDone < 21*ms {
		t.Fatalf("read finished at %v, want after the 20ms write + 1ms read", readDone)
	}
	if rg.gpu.Stats().FenceWaits != 1 {
		t.Fatalf("FenceWaits = %d, want 1", rg.gpu.Stats().FenceWaits)
	}
	// The reader saw current data (coherence invariant).
	reg, err := rg.mgr.Region(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.HasCurrentCopy(rg.mach.VRAM) {
		t.Fatal("GPU read completed without a current copy")
	}
}

func TestFenceSkippedWhenAlreadySignaled(t *testing.T) {
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(hostsim.MiB)
	rg.env.Spawn("driver", func(p *sim.Proc) {
		w := rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: 1 * ms})
		p.Sleep(10 * ms) // write long done; fence signaled
		rg.gpu.Submit(p, Op{Kind: OpRead, Region: r.ID, Exec: 1 * ms, After: w})
	})
	rg.env.RunUntil(time.Second)
	if rg.gpu.Stats().FenceWaits != 0 {
		t.Fatalf("FenceWaits = %d, want 0 (fence pre-signaled)", rg.gpu.Stats().FenceWaits)
	}
}

func TestPipelinedSubmissionsKeepOrderWithinQueue(t *testing.T) {
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(hostsim.MiB)
	var order []time.Duration
	rg.env.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			rg.codec.Submit(p, Op{
				Kind: OpExec, Region: r.ID, Exec: 2 * ms,
				OnComplete: func(at time.Duration) { order = append(order, at) },
			})
		}
	})
	rg.env.RunUntil(time.Second)
	if len(order) != 5 {
		t.Fatalf("executed %d ops, want 5", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1]+2*ms {
			t.Fatalf("queue executed out of order / overlapped: %v", order)
		}
	}
}

func TestEventDrivenOrderingSerializesOnIRQ(t *testing.T) {
	rg := newRig(t, ModeEventDriven)
	r, _ := rg.mgr.Alloc(16 * hostsim.MiB)
	var readStart time.Duration
	rg.env.Spawn("driver", func(p *sim.Proc) {
		w := rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: 15 * ms})
		start := p.Now()
		rg.gpu.Submit(p, Op{Kind: OpRead, Region: r.ID, Exec: 1 * ms, After: w})
		readStart = p.Now() - start
	})
	rg.env.RunUntil(time.Second)
	// The dependent submit itself blocks on the predecessor's IRQ.
	if readStart < 15*ms {
		t.Fatalf("dependent submit returned after %v, want >= 15ms (waited on IRQ)", readStart)
	}
}

func TestMIMDPacingEngagesUnderFloodedQueue(t *testing.T) {
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(hostsim.MiB)
	rg.env.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 500; i++ {
			rg.codec.Submit(p, Op{Kind: OpExec, Region: r.ID, Exec: 1 * ms})
		}
	})
	rg.env.RunUntil(5 * time.Second)
	if rg.codec.mimd.Stalls() == 0 {
		t.Fatal("MIMD should have paced a flooding driver")
	}
	if rg.codec.Stats().Executed != 500 {
		t.Fatalf("Executed = %d, want 500", rg.codec.Stats().Executed)
	}
}

func TestRemapChangesAccessor(t *testing.T) {
	rg := newRig(t, ModeFence)
	if rg.codec.Accessor().Physical != pCodecHW {
		t.Fatal("initial mapping wrong")
	}
	rg.codec.Remap(pCPU, rg.mach.CPU, rg.mach.DRAM)
	acc := rg.codec.Accessor()
	if acc.Physical != pCPU || acc.Domain != rg.mach.DRAM {
		t.Fatalf("remapped accessor = %+v", acc)
	}
	if rg.codec.VirtualID() != vCodec {
		t.Fatal("virtual identity must survive remap")
	}
}

func TestOnCompleteTimestamp(t *testing.T) {
	rg := newRig(t, ModeAtomic)
	r, _ := rg.mgr.Alloc(hostsim.MiB)
	var at time.Duration
	rg.env.Spawn("driver", func(p *sim.Proc) {
		rg.codec.Submit(p, Op{Kind: OpExec, Region: r.ID, Exec: 7 * ms,
			OnComplete: func(ts time.Duration) { at = ts }})
	})
	rg.env.RunUntil(time.Second)
	if at < 7*ms {
		t.Fatalf("OnComplete at %v, want >= 7ms", at)
	}
}

func TestSharedPhysicalDeviceContention(t *testing.T) {
	// Two virtual devices mapped to the same physical GPU contend for its
	// execution units.
	rg := newRig(t, ModeAtomic)
	cfg := DefaultConfig()
	cfg.Mode = ModeAtomic
	disp := New(rg.env, rg.mgr, "display", vGPU, pGPU, rg.mach.GPU, rg.mach.VRAM, rg.ftab, cfg)
	r, _ := rg.mgr.Alloc(hostsim.MiB)
	var doneA, doneB time.Duration
	// GPU has 2 units; saturate with 3 concurrent 10ms ops across the two
	// virtual devices: the third must wait.
	rg.env.Spawn("d1", func(p *sim.Proc) {
		rg.gpu.Submit(p, Op{Kind: OpExec, Region: r.ID, Exec: 10 * ms})
		doneA = p.Now()
	})
	rg.env.Spawn("d2", func(p *sim.Proc) {
		disp.Submit(p, Op{Kind: OpExec, Region: r.ID, Exec: 10 * ms})
		disp.Submit(p, Op{Kind: OpExec, Region: r.ID, Exec: 10 * ms})
		doneB = p.Now()
	})
	rg.env.RunUntil(time.Second)
	if doneA > 11*ms {
		t.Fatalf("first op finished at %v, want ~10ms", doneA)
	}
	if doneB < 20*ms {
		t.Fatalf("serialized ops finished at %v, want >= 20ms", doneB)
	}
}

func TestQuickOrderingMatchesSequentialOracle(t *testing.T) {
	// Property: for any random dependency chain of ops spread across two
	// devices, completion order under fence mode matches the dependency
	// (sequential) order — the happens-before contract of §3.4.
	f := func(seed int64, kinds []uint8) bool {
		if len(kinds) == 0 {
			return true
		}
		if len(kinds) > 24 {
			kinds = kinds[:24]
		}
		rg := newRigSeeded(t, ModeFence, seed)
		r, _ := rg.mgr.Alloc(hostsim.MiB)
		var order []int
		okc := true
		rg.env.Spawn("driver", func(p *sim.Proc) {
			var prev *Ticket
			var last *Ticket
			for i, k := range kinds {
				dev := rg.codec
				if k%2 == 1 {
					dev = rg.gpu
				}
				i := i
				tk := dev.Submit(p, Op{
					Kind: OpExec, Region: r.ID,
					Exec:  time.Duration(1+k%5) * time.Millisecond,
					After: prev,
					OnComplete: func(at time.Duration) {
						order = append(order, i)
					},
				})
				prev = tk
				last = tk
			}
			last.Ready.Wait(p)
		})
		rg.env.RunUntil(10 * time.Second)
		if len(order) != len(kinds) {
			return false
		}
		for i, v := range order {
			if v != i {
				okc = false
			}
		}
		return okc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRemapMidStreamPrefetchAdapts(t *testing.T) {
	// §3.2: a virtual device can fall back to a different physical device
	// mid-run (e.g. codec dropping from NVDEC to software decode). The
	// twin hypergraphs keep per-physical-device flows, so the prefetch
	// engine re-learns the new flow and reads stay coherent throughout.
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(8 * hostsim.MiB)
	runPhase := func(frames int) {
		rg.env.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < frames; i++ {
				w := rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: 2 * ms})
				p.Sleep(16 * ms)
				rd := rg.gpu.Submit(p, Op{Kind: OpRead, Region: r.ID, Exec: ms, After: w})
				rd.Ready.Wait(p)
				reg, _ := rg.mgr.Region(r.ID)
				if !reg.HasCurrentCopy(rg.mach.VRAM) {
					t.Error("stale read after remap")
					return
				}
			}
		})
		rg.env.RunFor(time.Duration(frames) * 40 * ms)
	}
	runPhase(10)
	hitsBefore := rg.mgr.Stats().PrefetchHits
	if hitsBefore < 5 {
		t.Fatalf("phase 1 hits = %d, want warmed prefetch", hitsBefore)
	}
	// Fallback: codec moves from its hardware engine to the CPU.
	rg.codec.Remap(pCPU, rg.mach.CPU, rg.mach.DRAM)
	runPhase(10)
	if got := rg.mgr.Stats().PrefetchHits; got <= hitsBefore+3 {
		t.Fatalf("prefetch did not recover after remap: %d -> %d", hitsBefore, got)
	}
	// Both physical flows exist in the physical layer.
	tw := rg.mgr.Twin()
	if _, ok := tw.Physical.Lookup(
		[]hypergraph.NodeID{pCodecHW}, []hypergraph.NodeID{pGPU}); !ok {
		t.Fatal("missing pre-remap physical flow")
	}
	if _, ok := tw.Physical.Lookup(
		[]hypergraph.NodeID{pCPU}, []hypergraph.NodeID{pGPU}); !ok {
		t.Fatal("missing post-remap physical flow")
	}
}

func TestWatchdogUnblocksWaiterOnStalledDevice(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeFence
	cfg.WatchdogTimeout = 20 * ms
	rg := newRigCfg(t, cfg, 3)
	r, _ := rg.mgr.Alloc(hostsim.MiB)

	// Hang the physical GPU: its queued op can never execute, so the
	// fence the dependent codec op waits on never retires.
	stuck := sim.NewEvent(rg.env)
	rg.mach.GPU.Stall(stuck)

	rg.env.Spawn("driver", func(p *sim.Proc) {
		a := rg.gpu.Submit(p, Op{Kind: OpExec, Exec: ms})
		rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: ms, After: a})
	})
	rg.env.RunUntil(time.Second)

	if got := rg.codec.Stats().FenceTimeouts; got != 1 {
		t.Fatalf("FenceTimeouts = %d, want 1", got)
	}
	if got := rg.codec.Stats().Executed; got != 1 {
		t.Fatalf("codec Executed = %d, want 1 (watchdog must let the op proceed)", got)
	}
	if got := rg.gpu.Stats().Executed; got != 0 {
		t.Fatalf("gpu Executed = %d, want 0 while stalled", got)
	}
}

func TestNoWatchdogWaitsOutTheStall(t *testing.T) {
	// With the watchdog disabled (the evaluation default) the dependent op
	// waits for the real signal: release the stall mid-run and everything
	// completes with no timeout counted.
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(hostsim.MiB)

	release := sim.NewEvent(rg.env)
	rg.mach.GPU.Stall(release)
	rg.env.After(100*ms, release.Signal)

	rg.env.Spawn("driver", func(p *sim.Proc) {
		a := rg.gpu.Submit(p, Op{Kind: OpExec, Exec: ms})
		rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: ms, After: a})
	})
	rg.env.RunUntil(time.Second)

	if got := rg.codec.Stats().FenceTimeouts; got != 0 {
		t.Fatalf("FenceTimeouts = %d, want 0", got)
	}
	if rg.codec.Stats().Executed != 1 || rg.gpu.Stats().Executed != 1 {
		t.Fatalf("Executed codec=%d gpu=%d, want 1/1 after stall release",
			rg.codec.Stats().Executed, rg.gpu.Stats().Executed)
	}
}

func TestOpOnRegionFreedMidExecutionIsDropped(t *testing.T) {
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(16 * hostsim.MiB)

	rg.env.Spawn("driver", func(p *sim.Proc) {
		rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: 10 * ms})
	})
	rg.env.After(5*ms, func() {
		if err := rg.mgr.Free(r.ID); err != nil {
			t.Errorf("Free: %v", err)
		}
	})
	rg.env.RunUntil(time.Second)

	st := rg.codec.Stats()
	if st.DroppedOps != 1 {
		t.Fatalf("DroppedOps = %d, want 1", st.DroppedOps)
	}
	if st.Executed != 1 {
		t.Fatalf("Executed = %d, want 1 (host loop must survive the drop)", st.Executed)
	}
}

func TestOpOnAlreadyFreedRegionIsDropped(t *testing.T) {
	rg := newRig(t, ModeFence)
	r, _ := rg.mgr.Alloc(hostsim.MiB)
	if err := rg.mgr.Free(r.ID); err != nil {
		t.Fatal(err)
	}

	rg.env.Spawn("driver", func(p *sim.Proc) {
		rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: ms})
	})
	rg.env.RunUntil(time.Second)

	st := rg.codec.Stats()
	if st.DroppedOps != 1 {
		t.Fatalf("DroppedOps = %d, want 1", st.DroppedOps)
	}
	if st.Executed != 1 {
		t.Fatalf("Executed = %d, want 1", st.Executed)
	}
}

// TestOpRoundTripAllocs pins the per-op allocations of a steady-state
// fence-mode write→read pair under write-invalidate coherence: each Submit
// allocates its op record (ticket, host payload and ring command with its
// Done event, co-allocated) and its signal fence (with the fence's event
// embedded), and the SVM accesses and the demand fetch allocate nothing —
// so four for the pair.
func TestOpRoundTripAllocs(t *testing.T) {
	cfg := DefaultConfig()
	svmCfg := svm.DefaultConfig()
	svmCfg.Kind = svm.KindWriteInvalidate
	rg := newRigSVM(t, cfg, svmCfg, 3)
	r, _ := rg.mgr.Alloc(4 * hostsim.MiB)
	gate := sim.NewQueue[int](rg.env, 0)
	rg.env.Spawn("driver", func(p *sim.Proc) {
		for {
			gate.Get(p)
			w := rg.codec.Submit(p, Op{Kind: OpWrite, Region: r.ID, Exec: ms})
			rd := rg.gpu.Submit(p, Op{Kind: OpRead, Region: r.ID, Exec: ms, After: w})
			rd.Fence.Wait(p)
		}
	})
	cycle := func() {
		gate.TryPut(0)
		rg.env.Run()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	executed := rg.gpu.Stats().Executed
	if allocs := testing.AllocsPerRun(1000, cycle); allocs > 4 {
		t.Fatalf("%.1f allocs per write→read op pair, want <= 4", allocs)
	}
	if got := rg.gpu.Stats().Executed - executed; got != 1001 {
		t.Fatalf("%d reads executed in the measured cycles, want 1001", got)
	}
}
