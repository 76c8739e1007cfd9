package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSnap is the process's host cost at one instant: wall clock, CPU
// (user+sys over every thread), the time the hypervisor has stolen from
// the machine's CPUs, and the runtime's cumulative allocation and GC
// counters.
type hostSnap struct {
	wall   time.Time
	cpu    time.Duration
	steal  time.Duration // summed over CPUs
	allocs uint64
	bytes  uint64
	gcs    uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func snap() hostSnap {
	metrics.Read(runtimeSamples)
	return hostSnap{
		wall:   time.Now(),
		cpu:    cpuTime(),
		steal:  stealTime(),
		allocs: runtimeSamples[0].Value.Uint64(),
		bytes:  runtimeSamples[1].Value.Uint64(),
		gcs:    runtimeSamples[2].Value.Uint64(),
	}
}

// cpuTime is the process's user+sys CPU over every thread. In a guest
// with steal accounting it excludes the time the hypervisor stole.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the steal column of the aggregate cpu line of /proc/stat:
// time the hypervisor ran something else while this machine's CPUs had
// work, summed over CPUs, in 10 ms ticks. Zero where it is not reported.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100
}

// hostCost is the difference of two snapshots.
type hostCost struct {
	wall   time.Duration
	cpu    time.Duration
	steal  time.Duration
	allocs uint64
	bytes  uint64
	gcs    uint64
}

func (c *hostCost) add(from, to hostSnap) {
	c.wall += to.wall.Sub(from.wall)
	c.cpu += to.cpu - from.cpu
	c.steal += to.steal - from.steal
	c.allocs += to.allocs - from.allocs
	c.bytes += to.bytes - from.bytes
	c.gcs += to.gcs - from.gcs
}

// ownWall is the wall time less the share of stolen time that fell on the
// process: steal is spread over the machine's CPUs, so a running thread
// loses about steal/NumCPU. On a host where the hypervisor does not
// steal, it is the wall time. Steal comes in 10 ms ticks, so on a very
// short interval it can overshoot; the floor of half the wall bounds that.
func (c *hostCost) ownWall() time.Duration {
	return max(c.wall-c.steal/time.Duration(runtime.NumCPU()), c.wall/2)
}

// peakRSSMB is the process's peak resident set size, VmHWM of
// /proc/self/status. Unlike ru_maxrss it is not inherited across exec, so
// the wrapper script that execs the benchmark does not leak into it.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// percentile is the nearest-rank q-th percentile (0 < q <= 100) of vs.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile is the highest ladder percentile with at least ten samples
// beyond it among n samples.
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if float64(n)*(100-q)/100 >= 10 {
			return q
		}
	}
	return 50
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
