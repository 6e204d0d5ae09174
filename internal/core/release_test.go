package core

import (
	"os"
	"reflect"
	"testing"
)

// TestReleasedSimulatorPanics checks that every entry point refuses a
// released simulator, whose memory may already serve another run, and that
// a second Release is harmless.
func TestReleasedSimulatorPanics(t *testing.T) {
	uses := map[string]func(s *Simulator){
		"Run":      func(s *Simulator) { s.Run() },
		"Step":     func(s *Simulator) { s.Step() },
		"Snapshot": func(s *Simulator) { s.Snapshot() },
		"StartOp":  func(s *Simulator) { s.StartOp(0, []int{1}, false, 4) },
		"Drain":    func(s *Simulator) { s.Drain(10) },
	}
	for name, use := range uses {
		sim, err := New(snapTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		sim.Step()
		sim.Release()
		sim.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released simulator did not panic", name)
				}
			}()
			use(sim)
		}()
	}
}

// compatConfig is the configuration of testdata/ib_long_credit_queue.ckpt:
// a loaded input-buffer run whose snapshot, taken at cycle 1200 by the
// engine before credit returns were folded, holds credit queues of up to
// 159 entries.
func compatConfig() Config {
	cfg := DefaultConfig()
	cfg.Arch = InputBuffer
	cfg.Arity = 4
	cfg.Stages = 2
	cfg.WarmupCycles = 300
	cfg.MeasureCycles = 1_500
	cfg.DrainCycles = 100_000
	cfg.Traffic.OpRate = 0.004
	cfg.Traffic.MulticastFraction = 0.5
	cfg.Traffic.Degree = 6
	cfg.Seed = 7
	return cfg
}

// TestRestoreUnfoldedCreditQueue restores a committed snapshot written
// before credit folding, whose credit queues exceed the latency+1 bound
// the link rings are now sized by, and requires the resumed run to finish
// identical to the uninterrupted one.
func TestRestoreUnfoldedCreditQueue(t *testing.T) {
	blob, err := os.ReadFile("testdata/ib_long_credit_queue.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(blob)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	deepest := 0
	for _, l := range restored.sim.Links() {
		deepest = max(deepest, l.MaxQueued())
	}
	if deepest <= restored.cfg.LinkLatency+1 {
		t.Fatalf("deepest restored link queue is %d: the snapshot no longer exercises an over-bound queue", deepest)
	}

	ref, err := New(compatConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Config(), restored.Config()) {
		t.Fatalf("snapshot config differs from compatConfig\nwant %+v\ngot  %+v", ref.Config(), restored.Config())
	}
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed run differs from the uninterrupted run\nwant %+v\ngot  %+v", want, got)
	}
}
