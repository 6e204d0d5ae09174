package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mdworm/internal/engine"
	"mdworm/internal/faults"
)

// queueChecker is the oracle for the link queue bound. Registered after
// every other component, it steps last in each cycle and verifies that no
// link holds more than latency+1 flits on the wire or latency+1 entries in
// its credit queue — the bound NewLink sizes both rings by. It never
// sleeps, so a checked run is stepped every cycle; its results must not
// change because of that.
type queueChecker struct {
	s      *Simulator
	cycles int64
	peak   int // deepest queue seen on any link
	err    error
}

func attachQueueChecker(s *Simulator) *queueChecker {
	c := &queueChecker{s: s}
	s.sim.AddComponent(c)
	return c
}

func (c *queueChecker) Name() string   { return "link-queue-checker" }
func (c *queueChecker) Quiesced() bool { return true }
func (c *queueChecker) Step(now int64) {
	if c.err != nil {
		return
	}
	c.cycles++
	for _, l := range c.s.sim.Links() {
		q := l.MaxQueued()
		c.peak = max(c.peak, q)
		if q > l.Latency()+1 {
			c.err = fmt.Errorf("cycle %d: link %s holds %d queued entries, bound %d",
				now, l.Name(), q, l.Latency()+1)
			return
		}
	}
}

// randomQueueConfig is randomMaskConfig (CB/IB, k-ary/irregular,
// unicast/multicast, collectives, link-down/port-stuck/cb-shrink plans)
// with wires of latency 1 to 3 and an occasional NIC stall, which leaves
// credits queued on the stalled NIC's injection link.
func randomQueueConfig(t *testing.T, rng *engine.RNG) Config {
	cfg := randomMaskConfig(t, rng)
	cfg.LinkLatency = 1 + rng.Intn(3)
	if rng.Intn(2) == 0 {
		probe, err := New(cfg)
		if err != nil {
			t.Fatalf("probe config: %v", err)
		}
		span := cfg.WarmupCycles + cfg.MeasureCycles
		cfg.Faults.Events = append(cfg.Faults.Events, faults.Event{Kind: faults.NICStall,
			At: int64(1 + rng.Intn(int(span))), Duration: int64(1 + rng.Intn(800)),
			Node: rng.Intn(probe.Net().N)})
	}
	return cfg
}

// TestLinkQueueBound checks the latency+1 bound on every link after every
// cycle of random runs, half of them resumed from a mid-run checkpoint.
// A checked run must also produce exactly the results of the unchecked one.
func TestLinkQueueBound(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	rng := engine.NewRNG(0x51B0)
	peak := 0
	for trial := 0; trial < trials; trial++ {
		cfg := randomQueueConfig(t, rng)
		name := fmt.Sprintf("trial%d/%v/%v/%v/latency%d/degree%d/collective=%v/%s", trial, cfg.Arch, cfg.Topology,
			cfg.Scheme, cfg.LinkLatency, cfg.Traffic.Degree, cfg.Collective.Enabled(), cfg.Faults.Spec())

		ref, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stop := cfg.WarmupCycles + int64(rng.Intn(int(cfg.MeasureCycles)))
		var blob []byte
		want, err := ref.RunCheckpointed(stop, func(data []byte, cycle int64) error {
			if blob == nil {
				blob = data
			}
			return nil
		})
		var wantOut any = want
		var dl *engine.DeadlockError
		if err != nil {
			if !errors.As(err, &dl) || !cfg.IB.SyncReplication {
				t.Fatalf("%s: reference run: %v", name, err)
			}
			wantOut = err.Error()
		}

		var sim *Simulator
		if trial%2 == 1 && blob != nil {
			name += "/restored"
			if sim, err = Restore(blob); err != nil {
				t.Fatalf("%s: restore: %v", name, err)
			}
		} else if sim, err = New(cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		chk := attachQueueChecker(sim)
		res, err := sim.Run()
		var gotOut any = res
		if err != nil {
			if !errors.As(err, &dl) || !cfg.IB.SyncReplication {
				t.Fatalf("%s: %v", name, err)
			}
			gotOut = err.Error()
		}
		if chk.err != nil {
			t.Fatalf("%s: %v", name, chk.err)
		}
		if chk.cycles == 0 {
			t.Fatalf("%s: checker never ran", name)
		}
		if !reflect.DeepEqual(wantOut, gotOut) {
			t.Fatalf("%s: checked run differs from unchecked run\nwant %+v\ngot  %+v", name, wantOut, gotOut)
		}
		peak = max(peak, chk.peak)
	}
	if peak < 2 {
		t.Fatalf("deepest link queue over all trials was %d: the bound was never approached", peak)
	}
}
