package core

import (
	"runtime"
	"runtime/metrics"
	"testing"
)

// heapProbe reads the live heap, after a full collection, at two cycles
// of a run, and the bytes the run allocated between them.
type heapProbe struct {
	at          [2]int64
	live, alloc [2]uint64
	seen        int
}

func (p *heapProbe) Name() string   { return "heap-probe" }
func (p *heapProbe) Quiesced() bool { return true }
func (p *heapProbe) Step(now int64) {
	if p.seen == len(p.at) || now != p.at[p.seen] {
		return
	}
	// Two collections: the first moves idle sync.Pool chunks to the
	// victim cache, the second frees them, so only reachable memory counts.
	runtime.GC()
	runtime.GC()
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(m)
	p.live[p.seen], p.alloc[p.seen] = m[0].Value.Uint64(), m[1].Value.Uint64()
	p.seen++
}

// TestLongRunLiveHeapBounded checks that a long run's live heap follows
// its live traffic, not its length: once the arena keeps all the chunks it
// recycles on Release, the worms, messages and ops that retire must become
// collectable even though the run is never released. The unicast traffic
// takes chunks of every kind at the same pace and passes that point near
// cycle 13,000. Both probes fall inside the warmup, where no latency
// samples are recorded, so nothing the run legitimately keeps grows
// between them.
func TestLongRunLiveHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	cfg := DefaultConfig()
	cfg.Traffic.MulticastFraction = 0
	cfg.Traffic.UniPayloadFlits = 4
	cfg.Traffic.OpRate = 0.02
	cfg.NIC.SendOverhead, cfg.NIC.RecvOverhead = 0, 0
	cfg.WarmupCycles, cfg.MeasureCycles = 60_000, 1_000
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &heapProbe{at: [2]int64{20_000, 60_000}}
	sim.sim.AddComponent(p)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if p.seen != len(p.at) {
		t.Fatalf("probe ran %d of %d times", p.seen, len(p.at))
	}
	// Nearly everything allocated between the probes is worms, messages
	// and ops; keeping them all reachable would grow the live heap by
	// about that much.
	alloc := p.alloc[1] - p.alloc[0]
	if alloc < 8<<20 {
		t.Fatalf("run allocated only %d bytes between the probes: too little traffic to tell", alloc)
	}
	grown := int64(p.live[1]) - int64(p.live[0])
	t.Logf("live heap %d -> %d bytes; %d bytes allocated between", p.live[0], p.live[1], alloc)
	if grown > int64(alloc/8) {
		t.Fatalf("live heap grew by %d bytes while the run allocated %d: retired objects stay reachable", grown, alloc)
	}
}
