package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host probes are benchmark-owned context recorded beside every timed
// phase: a memory-bound STREAM triad and a register-only spin. A run taken
// in a slow host phase shows as a low triad figure, and the triad gives
// linalg.apply_gbps_computed a bandwidth to compare against. They are never
// end-to-end metrics.

const (
	triadLen   = 1 << 20 // 8 MiB per array: beyond L2, small beside memory
	triadReps  = 5
	spinRounds = 20_000_000
)

// spinSink keeps the spin loop's result live.
var spinSink uint64

// triadGBps times a[i] = b[i] + s*c[i] and returns the best of a few sweeps
// in GB/s (three arrays of 8-byte words moved per element).
func triadGBps() float64 {
	a, b, c := make([]float64, triadLen), make([]float64, triadLen), make([]float64, triadLen)
	for i := range b {
		b[i], c[i] = float64(i), float64(triadLen-i)
	}
	best := time.Duration(1<<63 - 1)
	for r := 0; r < triadReps; r++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return 3 * 8 * float64(triadLen) / best.Seconds() / 1e9
}

// spinMs times a fixed register-only xorshift loop on one locked thread
// and returns its wall time and the share of it the thread was not on a
// CPU: on a guest whose hypervisor steals the vCPU, that share is the
// steal the loop saw.
func spinMs() (wallMs, stealFrac float64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, c0 := time.Now(), clockCPU(clockThreadCPUTime)
	x := uint64(88172645463325252)
	for i := 0; i < spinRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	wall, cpu := time.Since(t0), clockCPU(clockThreadCPUTime)-c0
	return float64(wall.Nanoseconds()) / 1e6, 1 - float64(cpu)/float64(wall)
}

// hostProbe is one set of probe readings.
type hostProbe struct{ triad, spin, steal float64 }

func probeHost() hostProbe {
	p := hostProbe{triad: triadGBps()}
	p.spin, p.steal = spinMs()
	return p
}

// Linux clock ids for clock_gettime.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// clockCPU reads a CPU-time clock. The kernel charges a task only for the
// time it actually ran, so time a hypervisor steals from the guest's vCPU,
// and time spent blocked, are not in it.
func clockCPU(id uintptr) time.Duration {
	var ts syscall.Timespec
	// clock_gettime cannot fail for these clock ids and a valid pointer.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time of every thread of this process: the op's own
// goroutine, the collector, the linalg worker pool and the in-process
// daemon's handlers alike.
func processCPU() time.Duration { return clockCPU(clockProcessCPUTime) }

// cpuTime returns user+system CPU time of this process and of its waited-for
// children (the lapccnode workers once their mesh has closed).
func cpuTime() (self, children time.Duration) {
	var s, c syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &s)     // cannot fail with a valid who
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &c) // likewise
	tv := func(r *syscall.Rusage) time.Duration {
		return time.Duration(r.Utime.Nano() + r.Stime.Nano())
	}
	return tv(&s), tv(&c)
}
