package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mdworm/internal/collective"
	"mdworm/internal/engine"
	"mdworm/internal/faults"
	"mdworm/internal/topology"
)

// maskChecker is the oracle for the switches' port bitmaps. Registered
// after every other component, it steps last in each cycle and verifies
// that every switch's clear bits name idle ports and that every input wire
// with flits in flight is marked. It never sleeps, so the kernel steps every
// cycle of a checked run instead of jumping the clock; the run's results
// must not change because of that.
type maskChecker struct {
	s      *Simulator
	cycles int64
	err    error
}

func attachMaskChecker(s *Simulator) *maskChecker {
	c := &maskChecker{s: s}
	s.sim.AddComponent(c)
	return c
}

func (c *maskChecker) Name() string   { return "port-mask-checker" }
func (c *maskChecker) Quiesced() bool { return true }
func (c *maskChecker) Step(now int64) {
	if c.err != nil {
		return
	}
	c.cycles++
	for _, sw := range c.s.cbs {
		if err := sw.CheckPortMasks(); err != nil {
			c.err = fmt.Errorf("cycle %d: %w", now, err)
			return
		}
	}
	for _, sw := range c.s.ibs {
		if err := sw.CheckPortMasks(); err != nil {
			c.err = fmt.Errorf("cycle %d: %w", now, err)
			return
		}
	}
}

// randomMaskConfig draws a small configuration across both switch
// organizations, k-ary and irregular fabrics, unicast and multicast
// traffic, synchronous replication, collectives and a recoverable fault
// plan (link-down, port-stuck, cb-shrink).
func randomMaskConfig(t *testing.T, rng *engine.RNG) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = rng.Uint64()
	cfg.Arch = []SwitchArch{CentralBuffer, InputBuffer}[rng.Intn(2)]
	cfg.Scheme = []collective.Scheme{
		collective.HardwareBitString, collective.SoftwareBinomial,
	}[rng.Intn(2)]
	if rng.Intn(3) == 0 {
		cfg.Topology = IrregularTree
		cfg.Tree = topology.TreeSpec{
			Switches:    2 + rng.Intn(10),
			MinHosts:    1,
			MaxHosts:    1 + rng.Intn(4),
			MaxChildren: 2 + rng.Intn(3),
			Seed:        rng.Uint64(),
		}
	} else {
		cfg.Arity = 2 + rng.Intn(3)
		cfg.Stages = 1 + rng.Intn(3)
	}
	cfg.Traffic.Degree = 1 // valid on any fabric; redrawn below
	probe, err := New(cfg)
	if err != nil {
		t.Fatalf("probe config: %v", err)
	}
	net := probe.Net()
	if n := net.N; n > 2 && rng.Intn(4) != 0 {
		cfg.Traffic.Degree = 1 + rng.Intn(min(n-2, 12))
	} else {
		cfg.Traffic.Degree = 1
		cfg.Traffic.MulticastFraction = 0 // unicast only
	}
	cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(0.05 + 0.35*rng.Float64())
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 1_200
	cfg.DrainCycles = 2_000_000
	cfg.WatchdogLimit = 20_000
	if cfg.Arch == InputBuffer && rng.Intn(4) == 0 {
		cfg.IB.SyncReplication = true // may deadlock by design (a10)
	}
	if rng.Intn(4) == 0 && net.N >= 2 {
		cfg.Traffic.OpRate = 0
		cfg.Collective = collective.Spec{
			Kind:         allKinds()[rng.Intn(len(allKinds()))],
			PayloadFlits: 1 + rng.Intn(8),
			Reps:         2 + rng.Intn(3),
			SkewCycles:   int64(rng.Intn(20)),
			GapCycles:    int64(rng.Intn(30)),
		}
	}

	span := cfg.WarmupCycles + cfg.MeasureCycles
	var plan faults.Plan
	for i, k := 0, rng.Intn(4); i < k; i++ {
		at := int64(1 + rng.Intn(int(span)))
		sw := rng.Intn(len(net.Switches))
		port := rng.Intn(net.Switches[sw].NumPorts())
		switch rng.Intn(3) {
		case 0:
			plan.Events = append(plan.Events, faults.Event{Kind: faults.LinkDown, At: at, Switch: sw, Port: port})
		case 1:
			plan.Events = append(plan.Events, faults.Event{Kind: faults.PortStuck,
				At: at, Duration: int64(1 + rng.Intn(1_500)), Switch: sw, Port: port})
		case 2:
			if cfg.Arch == CentralBuffer {
				cfg.CB.Chunks = 512
				plan.Events = append(plan.Events, faults.Event{Kind: faults.CBShrink,
					At: at, Switch: sw, Chunks: 1 + rng.Intn(64)})
			}
		}
	}
	cfg.Faults = plan
	return cfg
}

// runChecked runs sim with a mask checker attached and fails the test on
// the first unsound bitmap. A deadlock is tolerated only under synchronous
// replication.
func runChecked(t *testing.T, name string, sim *Simulator) (any, int64) {
	t.Helper()
	chk := attachMaskChecker(sim)
	res, err := sim.Run()
	if chk.err != nil {
		t.Fatalf("%s: %v", name, chk.err)
	}
	var dl *engine.DeadlockError
	if err != nil && !(errors.As(err, &dl) && sim.cfg.IB.SyncReplication) {
		t.Fatalf("%s: %v", name, err)
	}
	if err != nil {
		return err.Error(), chk.cycles
	}
	return res, chk.cycles
}

// TestPortMaskSoundness checks the port-bitmap invariant of both switch
// organizations after every cycle of random runs, half of them resumed from
// a mid-run checkpoint (whose restore marks every port busy). A checked run
// must also produce exactly the results of the unchecked one.
func TestPortMaskSoundness(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	rng := engine.NewRNG(0x3A5C)
	for trial := 0; trial < trials; trial++ {
		cfg := randomMaskConfig(t, rng)
		name := fmt.Sprintf("trial%d/%v/%v/%v/sync=%v/degree%d/collective=%v/%s", trial, cfg.Arch, cfg.Topology,
			cfg.Scheme, cfg.IB.SyncReplication, cfg.Traffic.Degree, cfg.Collective.Enabled(), cfg.Faults.Spec())

		// Reference: the unchecked run, checkpointed at a mid-run cycle.
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
		if err != nil {
			var dl *engine.DeadlockError
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
		got, cycles := runChecked(t, name, sim)
		if cycles == 0 {
			t.Fatalf("%s: checker never ran", name)
		}
		if !reflect.DeepEqual(wantOut, got) {
			t.Fatalf("%s: checked run differs from unchecked run\nwant %+v\ngot  %+v", name, wantOut, got)
		}
	}
}

// TestPortMaskSoundnessCombiningBarrier covers in-switch barrier combining,
// whose tokens enter output FIFOs (CB) or links (IB) outside the worm data
// path, on k-ary and irregular fabrics.
func TestPortMaskSoundnessCombiningBarrier(t *testing.T) {
	for _, arch := range []SwitchArch{CentralBuffer, InputBuffer} {
		for _, irregular := range []bool{false, true} {
			cfg := DefaultConfig()
			if irregular {
				cfg = irregularCfg(5)
			}
			cfg.Arch = arch
			cfg.Traffic.OpRate = 0
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			chk := attachMaskChecker(sim)
			for rep := 0; rep < 2; rep++ {
				if _, err := sim.RunBarrier(BarrierHardwareCombining, 5_000_000); err != nil {
					t.Fatalf("%v irregular=%v: %v", arch, irregular, err)
				}
			}
			if chk.err != nil {
				t.Fatalf("%v irregular=%v: %v", arch, irregular, chk.err)
			}
			if chk.cycles == 0 || !sim.Quiesced() {
				t.Fatalf("%v irregular=%v: checked %d cycles, quiesced=%v", arch, irregular, chk.cycles, sim.Quiesced())
			}
		}
	}
}

// TestPortMaskSoundnessWideSwitch runs central-buffer switches of more than
// 64 ports, whose bitmaps span several words (the input-buffer switch is
// limited to 64 ports by its request bitmaps).
func TestPortMaskSoundnessWideSwitch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = IrregularTree
	cfg.Tree = topology.TreeSpec{Switches: 3, MinHosts: 62, MaxHosts: 70, MaxChildren: 2, Seed: 9}
	cfg.Traffic.Degree = 6
	cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(0.2)
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 1_000
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wide := 0
	for _, sw := range sim.Net().Switches {
		if sw.NumPorts() > 64 {
			wide++
		}
	}
	if wide == 0 {
		t.Fatal("no switch has more than 64 ports")
	}
	if _, cycles := runChecked(t, "wide", sim); cycles == 0 {
		t.Fatal("checker never ran")
	}
}
