package workload

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/emulator"
	"repro/internal/guest"
	"repro/internal/hostsim"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// RunBroadcast runs the outbound-livestream pipeline: camera capture, ISP
// conversion, video encoding, and NIC transmission (Camera -> ISP -> Codec
// -> NIC). This is the path that requires an encoder — the capability
// Trinity lacks (§5.3) — and it exercises the SVM flows the viewing
// pipeline never touches: GPU-domain frames consumed by the encoder and
// encoder output consumed by the NIC.
//
// The returned Result's FPS is the transmitted frame rate and its Latency
// is glass-to-uplink: scene event to the chunk leaving the NIC.
func RunBroadcast(e *emulator.Emulator, spec Spec) (*Result, error) {
	spec.normalize()
	if e.Camera == nil {
		return nil, fmt.Errorf("workload: %s does not support cameras", e.Preset.Name)
	}
	if !e.Preset.HasEncoder {
		return nil, fmt.Errorf("workload: %s does not support video encoders", e.Preset.Name)
	}
	stop := e.Env.Now() + spec.Duration

	var fps metrics.FPSCounter
	var lat metrics.Distribution
	var setupErr error

	e.Env.Spawn("broadcast-main", func(p *sim.Proc) {
		// Converted RGBA frames from the camera pipeline.
		frameQ, err := guest.NewBufferQueue(p, e.HAL, spec.Buffers,
			FrameBytes(spec.VideoW, spec.VideoH, 4))
		if err != nil {
			setupErr = err
			return
		}
		if err := startCameraPipeline(p, e, &spec, frameQ, stop); err != nil {
			setupErr = err
			return
		}
		// Encoded chunks: ~bitrate/fps each.
		chunkBytes := hostsim.Bytes(300e6/8) / hostsim.Bytes(spec.ContentFPS)
		chunkQ, err := guest.NewBufferQueue(p, e.HAL, spec.Buffers, chunkBytes)
		if err != nil {
			setupErr = err
			return
		}
		mp := MPixels(spec.VideoW, spec.VideoH)

		// Encoder stage: read the converted frame, write the chunk.
		startStage(e, "encoder", e.Codec,
			device.Op{Exec: e.EncodeCost(mp), Commands: 8},
			device.Op{Exec: 200 * time.Microsecond},
			frameQ, chunkQ, stop)

		// Uplink stage: the NIC reads each chunk and puts it on the wire.
		for p.Now() < stop {
			c := chunkQ.Acquire(p)
			// Wire time for the chunk on the gigabit uplink.
			wire := time.Duration(float64(chunkBytes) / 118e6 * float64(time.Second))
			tx := e.NIC.Submit(p, device.Op{
				Kind: device.OpRead, Region: c.Region, Bytes: chunkBytes,
				Exec: wire, After: c.Ticket,
			})
			src := c.SourceTime
			tx.Ready.Wait(p)
			fps.Present(p.Now())
			if src > 0 {
				lat.AddDuration(p.Now() - src)
			}
			chunkQ.Release(p, c)
		}
	})
	e.Env.RunUntil(stop)
	if setupErr != nil {
		return nil, setupErr
	}
	r := &Result{
		App:      "Broadcast",
		Emulator: e.Preset.Name,
		Machine:  e.Machine.Name,
		Category: emulator.CatLivestream,
		Duration: spec.Duration,
		FPS:      fps.FPS(stop),
		Frames:   fps.Frames(),
	}
	r.PerSecondFPS = fps.PerSecond(stop)
	r.Latency.Merge(&lat)
	return r, nil
}
