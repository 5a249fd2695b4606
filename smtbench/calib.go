package main

import (
	"runtime"
	"syscall"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on small shared virtual machines whose speed for the
// same code moves by tens of percent within minutes, as other guests on
// the machine come and go. A time taken there mixes the program's cost
// with the host's speed at that moment. To separate the two, the driver
// runs a fixed calibration kernel of its own, which shares no code with
// the program under test, right before and right after every timed
// operation, and reports the operation's time at reference speed:
//
//	time at reference speed = measured time × refCalibMS / kernel time
//
// where the kernel time is the mean of the two runs that bracket the
// operation. A change to the program moves the measured time and not the
// kernel's, so it shows in full; a host that slows down slows both, and
// the slowdown cancels. Wall-clock times are scaled by the kernel's wall
// time and CPU times by its CPU time, so time spent waiting for a CPU
// counts on both sides of a wall-clock ratio and on neither side of a
// CPU one. Every run also prints the unscaled times and the kernel's
// medians, so the host's own speed stays visible.

const (
	// calibIters is the kernel's fixed amount of work: about 60 ms on
	// the reference host.
	calibIters = 3_000_000
	// refCalibMS is the kernel's time on the reference host (a 2-vCPU
	// "Intel(R) Xeon(R) Processor" VM), so a time at reference speed
	// reads as the milliseconds the operation would take there.
	refCalibMS = 60.0
	// calibTableWords sizes the kernel's table at 1 MiB, far larger
	// than a core's L1 data cache.
	calibTableWords = 1 << 17
)

// calibrator runs the calibration kernel and keeps every time it took.
type calibrator struct {
	seed, table []uint64
	wall, cpu   []float64
	sink        uint64
}

// calib is one kernel run's wall-clock and CPU time, in ms.
type calib struct{ wall, cpu float64 }

func newCalibrator() *calibrator {
	c := &calibrator{seed: make([]uint64, calibTableWords), table: make([]uint64, calibTableWords)}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range c.seed {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.seed[i] = x
	}
	return c
}

// run times one pass of the kernel. The kernel mixes what the simulator
// spends its time on: a data-dependent walk through a table that spills
// out of L1, unpredictable branches, and map updates. Every pass starts
// from the same table, so every pass does the same work.
func (c *calibrator) run() calib {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t, cpu0 := time.Now(), threadCPU()
	copy(c.table, c.seed)
	m := make(map[uint64]uint64, 1024)
	x := uint64(88172645463325252)
	var acc uint64
	idx := 0
	for i := 0; i < calibIters; i++ {
		v := c.table[idx]
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if v&1 == 0 {
			acc += v ^ x
		} else {
			acc -= v >> 3
		}
		c.table[idx] = v + x
		idx = int((v ^ x) & (calibTableWords - 1))
		if i&63 == 0 {
			m[x&1023] += acc
		}
	}
	c.sink += acc + uint64(len(m))
	k := calib{wall: ms(time.Since(t)), cpu: ms(threadCPU() - cpu0)}
	c.wall = append(c.wall, k.wall)
	c.cpu = append(c.cpu, k.cpu)
	return k
}

// wallScale converts a wall-clock time measured between two kernel runs
// into a time at reference speed.
func wallScale(before, after calib) float64 {
	return refCalibMS / ((before.wall + after.wall) / 2)
}

// cpuScale converts a CPU time measured between two kernel runs into a
// CPU time at reference speed.
func cpuScale(before, after calib) float64 {
	return refCalibMS / ((before.cpu + after.cpu) / 2)
}

// threadCPU returns the calling OS thread's user+system CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall lacks.
const rusageThread = 1

// report prints the kernel's medians and how many runs they rest on.
func (c *calibrator) report() {
	note("calibration kernel: median wall %.3f ms, cpu %.3f ms over %d runs (%.0f ms on the reference host; host speed %.3f of it)",
		median(c.wall), median(c.cpu), len(c.wall), refCalibMS, refCalibMS/median(c.wall))
}
