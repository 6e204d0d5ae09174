package main

import (
	"sync"
	"time"
)

// The reference clock. The shared machines this benchmark runs on change
// speed by up to 1.6x within half an hour as their neighbours come and go,
// and a sweep's CPU time moves with it as much as its wall time does. So a
// run times a fixed reference kernel between its sweeps, and the gated
// metrics rescale the run's times to refSeconds, the kernel's time on the
// machine the benchmark was set up on: a metric in reference seconds reads
// what the run would have taken there.
//
// The kernel is the benchmark's own code and never changes, so no change to
// the program moves it. It is a chain of dependent xorshift steps, which
// runs at the core's clock whatever the caches and memory do; of the
// kernels tried (this one, a discrete-event loop over a heap, a random walk
// over a 4 MB table and a high-ILP loop over an L1-resident table) it
// followed the sweep's own swings most closely (correlation 0.81 over 36
// sweeps; the others 0.46-0.62).

// refSeconds is one goroutine's CPU time for refLoop on the reference
// machine (Intel Xeon, 2 vCPUs, go1.24.0).
const refSeconds = 0.25

// refSink keeps the kernel's result live.
var refSink uint64

// refLoop runs the kernel once and returns a checksum.
func refLoop(seed uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 | 1
	var s uint64
	for i := 0; i < 100_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += x & 1
	}
	return s
}

// refTime runs the kernel on procs goroutines at once, as a sweep keeps
// every CPU busy, and returns the CPU time per goroutine.
func refTime(procs int) time.Duration {
	c0 := cpuTime()
	var wg sync.WaitGroup
	sums := make([]uint64, procs)
	for g := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = refLoop(uint64(g + 1))
		}()
	}
	wg.Wait()
	for _, s := range sums {
		refSink += s
	}
	return (cpuTime() - c0) / time.Duration(procs)
}

// refClock collects a run's reference-kernel times.
type refClock struct {
	procs int
	times []float64 // seconds per goroutine, in the order measured
}

// tick times the kernel once and returns its time in seconds.
func (c *refClock) tick() float64 {
	t := refTime(c.procs).Seconds()
	c.times = append(c.times, t)
	return t
}

// scale returns the factor that turns a time measured while the kernel took
// ref seconds into reference seconds.
func scale(ref float64) float64 { return refSeconds / ref }

// report sets bench.ref_kernel_s, the run's median kernel time, and returns
// the run's median scale factor.
func (c *refClock) report(r *run) float64 {
	m := median(c.times)
	r.set("bench.ref_kernel_s", m)
	r.samples["ref_kernel"] = len(c.times)
	return scale(m)
}
