package core

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"mdworm/internal/faults"
)

// bimodalCompatConfig is the configuration of testdata/cb_bimodal_load.ckpt
// and testdata/cb_bimodal_drain.ckpt: a loaded central-buffer run with
// bimodal traffic, checkpointed at cycle 1200 (load phase) and 1900 (drain,
// with 13 ops outstanding) by the engine whose traffic generator drew every
// node's stream once per cycle.
func bimodalCompatConfig() Config {
	cfg := DefaultConfig()
	cfg.Arch = CentralBuffer
	cfg.Arity = 4
	cfg.Stages = 2
	cfg.WarmupCycles = 300
	cfg.MeasureCycles = 1_500
	cfg.DrainCycles = 100_000
	cfg.Traffic.OpRate = 0.006
	cfg.Traffic.MulticastFraction = 0.1
	cfg.Traffic.Degree = 6
	cfg.Seed = 5
	return cfg
}

// TestPerCycleDrawSnapshotsByteIdentical requires the checkpoints this
// engine writes mid-load and mid-drain to equal, byte for byte, the ones
// written when every node drew once per cycle, and each of those to resume
// to the uninterrupted run's results.
func TestPerCycleDrawSnapshotsByteIdentical(t *testing.T) {
	files := map[int64]string{
		1200: "testdata/cb_bimodal_load.ckpt",
		1900: "testdata/cb_bimodal_drain.ckpt",
	}
	sim, err := New(bimodalCompatConfig())
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("last checkpoint taken")
	got := map[int64][]byte{}
	_, err = sim.RunCheckpointed(100, func(data []byte, cycle int64) error {
		if _, ok := files[cycle]; ok {
			got[cycle] = data
		}
		if len(got) == len(files) {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("run ended before both checkpoints: %v", err)
	}

	ref, err := New(bimodalCompatConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	for cycle, name := range files {
		blob, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[cycle], blob) {
			t.Errorf("cycle %d: snapshot differs from %s (%d vs %d bytes)", cycle, name, len(got[cycle]), len(blob))
		}
		restored, err := Restore(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := restored.Run()
		if err != nil {
			t.Fatalf("%s: resumed run: %v", name, err)
		}
		if !reflect.DeepEqual(want, res) {
			t.Errorf("%s: resumed run differs from the uninterrupted run\nwant %+v\ngot  %+v", name, want, res)
		}
	}
}

// TestFailedLinkCountRebuiltOnRestore checkpoints an input-buffer run after
// a link-down fault. The failed-link count is not in the checkpoint; restore
// must rebuild it from the links, or the switches stop avoiding and dropping
// at the dead link and the resumed run diverges.
func TestFailedLinkCountRebuiltOnRestore(t *testing.T) {
	cfg := snapTestConfig()
	cfg.Arch = InputBuffer
	cfg.Traffic.OpRate = 0.01
	cfg.Faults = faults.Plan{Events: []faults.Event{
		{Kind: faults.LinkDown, At: 300, Switch: 0, Port: 0},
	}}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want.DestsDropped == 0 {
		t.Fatal("the fault dropped nothing: the test no longer exercises a dead link")
	}

	blob := snapshotAt(t, cfg, 400)
	restored, err := Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	if n := restored.sim.FailedLinks(); n != 2 {
		t.Fatalf("restored simulation counts %d failed links, want 2 (both directions of sw0.p0)", n)
	}
	got, err := restored.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed run differs from the uninterrupted run (DestsDropped %d vs %d)\nwant %+v\ngot  %+v",
			want.DestsDropped, got.DestsDropped, want, got)
	}
}
