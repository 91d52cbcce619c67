package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. On a shared machine the speed of a core drifts
// by tens of percent over tens of seconds, whatever runs on it. On the
// 2-core Xeon the recorded state comes from, a fixed loop of about 0.13 s,
// timed 900 times in a row, took between 77 and 183 ms; ten 30-second runs
// of fig9-mail read 489K to 753K req/s wall-clock (quartile distance 22% of
// the median). So the benchmark times a fixed loop, which shares no code
// with the simulator, right before and right after every timed region, and
// reports host seconds scaled to a reference machine speed: wall seconds ×
// calibRef ÷ the mean of the two loop times. A change to the simulator
// moves the scaled seconds as it moves wall seconds; a change in machine
// speed moves both the region and the loop, and mostly cancels out.
const (
	calibIters = 6_000_000
	calibWords = 1 << 19 // 4 MiB, outside the Go heap
	// calibRef is the loop's typical time on the 2-core Xeon the recorded
	// state was measured on; only ratios between runs depend on it.
	calibRef = 29 * time.Millisecond
)

// calibrator times the reference loop: a linear congruential walk of
// random read-modify-writes over calibWords words. The buffer is about
// the size of the caches the simulator's maps and arrays work in, so the
// loop feels the same contention: over 39 fig9-mail replays its time
// correlated 0.8 with each cell's wall time, and scaling cut the replays'
// coefficient of variation from 13.5% to 6.1% (8.0% with a 32 MiB buffer).
type calibrator struct {
	buf []uint64
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calibWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration buffer: %w", err)
	}
	c := &calibrator{buf: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calibWords)}
	c.loop() // fault the buffer in
	return c, nil
}

func (c *calibrator) loop() time.Duration {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < calibIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		c.buf[x>>45] += x
	}
	return time.Since(t0)
}

// timed runs f between two loop timings and returns its wall seconds and
// its seconds scaled to the reference machine speed.
func (c *calibrator) timed(f func()) (wall, scaled float64) {
	before := c.loop()
	t0 := time.Now()
	f()
	wall = time.Since(t0).Seconds()
	after := c.loop()
	return wall, wall * calibRef.Seconds() / ((before + after) / 2).Seconds()
}
