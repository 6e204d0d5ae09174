package main

import (
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"
)

// memSampler tracks the memory the Go runtime holds from the OS — the
// resident set of this pure-Go process, daemons included, less the binary's
// own pages — sampled every 10 ms, and keeps its peak per window.
// max_rss_mb is the median window peak. A sweep run closes a window after
// each sweep, so every window covers the same work; a service run closes
// one every second. The whole-run peak swings by a quarter with whichever
// two large sweep points, or GC cycles, happen to coincide, and one-second
// windows over a sweep swing with which experiments they happen to cover;
// the median peak over whole sweeps does neither.
type memSampler struct {
	mu        sync.Mutex
	cur       float64
	peaks     []float64
	perSecond bool
	stop      chan struct{}
	done      chan struct{}
}

// startMemSampler starts sampling; with perSecond, windows close every
// second, else at each call to cut. It first collects the heap and returns
// what is free to the OS, so memory left over from set-up (cluster-sweep's
// in-process reference sweep) does not count, however far the runtime's
// background scavenger has got with it.
func startMemSampler(perSecond bool) *memSampler {
	debug.FreeOSMemory()
	m := &memSampler{perSecond: perSecond, stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		last := time.Now()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
			metrics.Read(samples)
			mb := float64(samples[0].Value.Uint64()-samples[1].Value.Uint64()) / (1 << 20)
			m.mu.Lock()
			m.cur = max(m.cur, mb)
			m.mu.Unlock()
			if perSecond && time.Since(last) >= time.Second {
				m.cut()
				last = time.Now()
			}
		}
	}()
	return m
}

// cut closes the current window.
func (m *memSampler) cut() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cur > 0 {
		m.peaks = append(m.peaks, m.cur)
	}
	m.cur = 0
}

// finish stops the sampler and sets max_rss_mb to the median window peak.
// A per-second sampler's last, partial window counts; a per-sweep sampler
// has closed its last window at the end of the last sweep.
func (m *memSampler) finish(r *run) {
	close(m.stop)
	<-m.done
	if m.perSecond {
		m.cut()
	}
	r.set("max_rss_mb", median(m.peaks))
	r.samples["max_rss_windows"] = len(m.peaks)
}
