package workload

import (
	"time"

	"repro/internal/device"
	"repro/internal/emulator"
	"repro/internal/guest"
	"repro/internal/hostsim"
	"repro/internal/sim"
)

// startVideoProducer runs the media-service + codec-driver side of a video
// pipeline: dequeue a buffer, decode into it, stamp its PTS, queue it
// (Codec -> GPU -> Display, Table 1).
func startVideoProducer(e *emulator.Emulator, spec *Spec, q *guest.BufferQueue, stop time.Duration) {
	period := spec.FramePeriod()
	frameBytes := spec.VideoFrameBytes()
	mp := MPixels(spec.VideoW, spec.VideoH)
	e.Env.Spawn("media-service", func(p *sim.Proc) {
		for seq := int64(0); p.Now() < stop; seq++ {
			b := q.Dequeue(p)
			// Demux + MediaCodec bookkeeping on the guest CPU.
			e.Machine.CPU.Exec(p, 300*time.Microsecond)
			tk := e.Codec.Submit(p, device.Op{
				Kind: device.OpWrite, Region: b.Region, Bytes: frameBytes,
				Exec: e.DecodeCost(mp), Commands: 8,
			})
			// MediaCodec hands the output buffer to the app only when the
			// decode completes (host completion is visible through the
			// shared fence status, so this wait costs no transport).
			tk.Ready.Wait(p)
			b.Ticket = tk
			b.Seq = seq
			b.PTS = time.Duration(seq) * period
			q.Queue(p, b)
		}
	})
}

// startCameraPipeline sets up the capture and ISP stages of a camera
// pipeline (Camera -> ISP -> GPU -> Display, Table 1). It must be called
// from process context (it allocates the intermediate buffer queue).
// Captured frames carry the scene-event timestamp for motion-to-photon
// accounting.
func startCameraPipeline(p *sim.Proc, e *emulator.Emulator, spec *Spec, out *guest.BufferQueue, stop time.Duration) error {
	period := spec.FramePeriod()
	if cap := e.Preset.CameraFPSCap; cap > 0 && cap < spec.ContentFPS {
		// Webcam passthrough negotiated a lower delivery rate.
		period = time.Second / time.Duration(cap)
	}
	rawBytes := spec.VideoFrameBytes() // YUY2-ish sensor output
	mp := MPixels(spec.VideoW, spec.VideoH)

	camQ, err := guest.NewBufferQueue(p, e.HAL, spec.Buffers, rawBytes)
	if err != nil {
		return err
	}
	// The scene event a frame first captured happened, on average, half a
	// capture period before the exposure, plus the sensor latency (§5.3)
	// and any host capture-stack buffering, all before the write is even
	// dispatched.
	lag := e.Machine.CameraLatency + e.Preset.CameraStackLatency + period/2
	startSource(e, "camera-service", e.Camera, device.Op{
		Bytes: rawBytes, Exec: 1 * time.Millisecond, // sensor readout
	}, camQ, period, lag, stop)
	startStage(e, "isp-stage", e.ISP,
		device.Op{Bytes: rawBytes, Exec: e.ISPCost(mp)},
		device.Op{Exec: 200 * time.Microsecond},
		camQ, out, stop)
	return nil
}

// startLivestreamPipeline sets up the NIC and codec stages of a livestream
// pipeline (NIC -> Codec -> GPU -> Display, Table 1). Must be called from
// process context. Chunks carry the source-side event time (NetworkDelay
// ago) for latency accounting.
func startLivestreamPipeline(p *sim.Proc, e *emulator.Emulator, spec *Spec, out *guest.BufferQueue, stop time.Duration) error {
	period := spec.FramePeriod()
	// 300 Mbps at 60 FPS is ~640 KB of compressed data per frame (§2.3).
	chunkBytes := hostsim.Bytes(300e6/8) / hostsim.Bytes(spec.ContentFPS)
	mp := MPixels(spec.VideoW, spec.VideoH)

	nicQ, err := guest.NewBufferQueue(p, e.HAL, spec.Buffers, chunkBytes)
	if err != nil {
		return err
	}
	// A full nicQ is RTMP backpressure: the chunk is delayed/merged.
	startSource(e, "nic-rx", e.NIC, device.Op{
		Bytes: chunkBytes, Exec: 200 * time.Microsecond,
	}, nicQ, period, spec.NetworkDelay+period/2, stop)
	startStage(e, "stream-decoder", e.Codec,
		device.Op{Bytes: chunkBytes, Exec: 100 * time.Microsecond},
		device.Op{Exec: e.DecodeCost(mp), Commands: 8},
		nicQ, out, stop)
	return nil
}

// startSource spawns a real-time source (camera sensor, NIC). Each period
// it takes a free buffer of q, stamps the scene-event time lag before now,
// writes the buffer on dev through the write template op, and queues it.
// Sources do not buffer: when q has no free buffer the frame is lost.
func startSource(e *emulator.Emulator, name string, dev *device.Device, op device.Op, q *guest.BufferQueue, period, lag, stop time.Duration) {
	op.Kind = device.OpWrite
	e.Env.Spawn(name, func(p *sim.Proc) {
		for seq := int64(0); p.Now() < stop; seq++ {
			target := time.Duration(seq+1) * period
			if wait := target - p.Now(); wait > 0 {
				p.Sleep(wait)
			}
			b, ok := q.TryDequeue()
			if !ok {
				continue
			}
			b.SourceTime = p.Now() - lag
			w := op
			w.Region = b.Region
			b.Ticket = dev.Submit(p, w)
			b.Seq = seq
			b.PTS = time.Duration(seq) * period
			q.Queue(p, b)
		}
	})
}

// startStage spawns a read->write stage (ISP, decoder, encoder): it reads
// each filled buffer of in on dev through the read template, writes a whole
// free buffer of out behind that read through the write template, hands
// the frame's Seq, PTS and SourceTime on, and queues the output once the
// write completes.
func startStage(e *emulator.Emulator, name string, dev *device.Device, read, write device.Op, in, out *guest.BufferQueue, stop time.Duration) {
	read.Kind, write.Kind = device.OpRead, device.OpWrite
	e.Env.Spawn(name, func(p *sim.Proc) {
		for p.Now() < stop {
			src := in.Acquire(p)
			dst := out.Dequeue(p)
			r, w := read, write
			r.Region, r.After = src.Region, src.Ticket
			w.Region, w.Bytes = dst.Region, dst.Size
			w.After = dev.Submit(p, r)
			tk := dev.Submit(p, w)
			dst.Ticket = tk
			dst.Seq = src.Seq
			dst.PTS = src.PTS
			dst.SourceTime = src.SourceTime
			tk.Ready.Wait(p)
			in.Release(p, src)
			out.Queue(p, dst)
		}
	})
}
