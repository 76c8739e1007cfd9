package emulator

import (
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/sim"
	"repro/internal/svm"
)

func build(t *testing.T, p Preset) (*sim.Env, *Emulator) {
	t.Helper()
	env := sim.NewEnv(11)
	mach := hostsim.HighEndDesktop(env)
	e := New(env, mach, p)
	t.Cleanup(env.Close)
	return env, e
}

func TestAllPresetsAssemble(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			_, e := build(t, p)
			if e.GPU == nil || e.Display == nil || e.Codec == nil || e.NIC == nil || e.Modem == nil || e.ISP == nil {
				t.Fatal("missing core devices")
			}
			if p.HasCamera && e.Camera == nil {
				t.Fatal("preset promises a camera")
			}
			if !p.HasCamera && e.Camera != nil {
				t.Fatal("preset should lack a camera")
			}
			if e.HAL == nil || e.VSync == nil || e.Fences == nil {
				t.Fatal("missing guest plumbing")
			}
		})
	}
}

func TestVSoCUsesUnifiedSVMAndHardwareCodec(t *testing.T) {
	_, e := build(t, VSoC())
	if e.Manager.Kind() != svm.KindPrefetch {
		t.Fatalf("vSoC kind = %v, want prefetch", e.Manager.Kind())
	}
	if !e.CodecIsHardware() {
		t.Fatal("vSoC codec should land on the GPU")
	}
	if e.Display.Domain() != e.Machine.VRAM {
		t.Fatal("virtual display should be managed by the physical GPU")
	}
	if e.HAL.CPUAccessor().Domain != e.Machine.DRAM {
		t.Fatal("unified SVM keeps CPU data host-side")
	}
}

func TestGuestSyncPresetsMapCPUToGuestPages(t *testing.T) {
	for _, p := range Mainstream() {
		_, e := build(t, p)
		if e.HAL.CPUAccessor().Domain != e.Machine.Guest {
			t.Fatalf("%s: guest-backed CPU accessor should live in guest pages", p.Name)
		}
	}
}

func TestTrinityLacksCameraAndEncoder(t *testing.T) {
	p := Trinity()
	_, e := build(t, p)
	if e.Camera != nil {
		t.Fatal("Trinity has no camera support (§5.3)")
	}
	if p.HasEncoder {
		t.Fatal("Trinity has no encoder support (§5.3)")
	}
	if e.CodecIsHardware() {
		t.Fatal("Trinity codec is software-only")
	}
}

func TestCompatCountsMatchPaper(t *testing.T) {
	wantEmerging := map[string]int{
		"vSoC": 48, "GAE": 47, "QEMU-KVM": 42, "LDPlayer": 43,
		"Bluestacks": 44, "Trinity": 20,
	}
	wantPopular := map[string]int{
		"vSoC": 25, "GAE": 21, "QEMU-KVM": 17, "LDPlayer": 25,
		"Bluestacks": 24, "Trinity": 24,
	}
	for _, p := range All() {
		total := 0
		for _, c := range p.EmergingCompat {
			total += c
		}
		if total != wantEmerging[p.Name] {
			t.Errorf("%s: emerging compat = %d, want %d", p.Name, total, wantEmerging[p.Name])
		}
		if p.PopularCompat != wantPopular[p.Name] {
			t.Errorf("%s: popular compat = %d, want %d", p.Name, p.PopularCompat, wantPopular[p.Name])
		}
	}
}

func TestDecodeCostHardwareVsSoftware(t *testing.T) {
	_, vsoc := build(t, VSoC())
	_, gae := build(t, GAE())
	const uhdMP = 3840 * 2160 / 1e6
	if vsoc.DecodeCost(uhdMP) >= gae.DecodeCost(uhdMP) {
		t.Fatal("vSoC hardware decode must beat GAE software decode")
	}
	if gae.DecodeCost(uhdMP) < 15*time.Millisecond {
		t.Fatalf("GAE UHD software decode = %v, want ~20ms", gae.DecodeCost(uhdMP))
	}
}

func TestAblationPresets(t *testing.T) {
	np := VSoCNoPrefetch()
	if np.SVM.Kind != svm.KindWriteInvalidate {
		t.Fatal("no-prefetch ablation should use write-invalidate")
	}
	nf := VSoCNoFence()
	if nf.SVM.Kind != svm.KindPrefetch {
		t.Fatal("no-fence ablation keeps the prefetch protocol")
	}
	if nf.Ordering == VSoC().Ordering {
		t.Fatal("no-fence ablation must change the ordering mode")
	}
}

func TestVSyncRunsAt60Hz(t *testing.T) {
	env, e := build(t, VSoC())
	env.RunUntil(time.Second)
	if got := e.VSync.Tick(); got != 60 {
		t.Fatalf("ticks in 1s = %d, want 60", got)
	}
}

func TestCostHelpersScaleWithPresetFactors(t *testing.T) {
	_, vsoc := build(t, VSoC())
	_, gae := build(t, GAE())
	const uhdMP = 3840 * 2160 / 1e6
	if !vsoc.EncodeIsHardware() || gae.EncodeIsHardware() {
		t.Fatal("encode placement wrong")
	}
	if vsoc.EncodeCost(uhdMP) >= gae.EncodeCost(uhdMP) {
		t.Fatal("NVENC must beat software encode")
	}
	if gae.RenderCost(uhdMP) <= vsoc.RenderCost(uhdMP) {
		t.Fatal("GAE's GPU factor should inflate render cost")
	}
	if gae.GPU3DCost() <= vsoc.GPU3DCost() {
		t.Fatal("GAE's GPU factor should inflate 3D cost")
	}
	if vsoc.ISPCost(uhdMP) >= gae.ISPCost(uhdMP)*10 {
		t.Fatal("ISP costs out of range")
	}
}

func TestNativeDevicePresetOnPixel(t *testing.T) {
	env := sim.NewEnv(2)
	defer env.Close()
	mach := hostsim.Pixel6a(env)
	e := New(env, mach, NativeDevice())
	if e.Codec.Domain() != mach.DRAM || e.GPU.Domain() != mach.DRAM {
		t.Fatal("unified memory: every device domain is main memory")
	}
	if !e.CodecIsHardware() {
		t.Fatal("native device decodes in hardware")
	}
	total := 0
	for _, c := range NativeDevice().EmergingCompat {
		total += c
	}
	if total != 50 {
		t.Fatalf("native runs %d/50 apps, want all", total)
	}
}
