package experiments

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"mdworm/internal/obs"
)

// renderWith runs one experiment in quick mode with the given worker count
// and returns the formatted table bytes.
func renderWith(t *testing.T, id string, workers int) []byte {
	t.Helper()
	tab, err := Run(id, Options{Quick: true, Seed: 1, Workers: workers})
	if err != nil {
		t.Fatalf("%s workers=%d: %v", id, workers, err)
	}
	var buf bytes.Buffer
	tab.Format(&buf)
	return buf.Bytes()
}

// TestParallelDeterminism is the runner's core guarantee: the rendered table
// is byte-identical whether points resolve serially or across eight workers.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweeps skipped in -short mode")
	}
	for _, id := range []string{"e1", "a2"} {
		serial := renderWith(t, id, 1)
		parallel := renderWith(t, id, 8)
		if !bytes.Equal(serial, parallel) {
			t.Errorf("%s: workers=1 and workers=8 rendered different tables:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
				id, serial, parallel)
		}
	}
}

// TestRunIDsStats checks that the batch API resolves every point, reports
// order-independent tables, and accounts for the simulated cycles.
func TestRunIDsStats(t *testing.T) {
	tables, stats, err := RunIDs([]string{"a8", "a5"}, Options{Quick: true, Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].ID != "A8" || tables[1].ID != "A5" {
		t.Fatalf("tables out of order: %v", []string{tables[0].ID, tables[1].ID})
	}
	var points int
	for _, tab := range tables {
		for _, s := range tab.Series {
			for _, p := range s.Points {
				if p.pending != nil {
					t.Fatalf("%s/%s x=%g left unresolved", tab.ID, s.Name, p.X)
				}
				points++
			}
		}
	}
	if stats.Points != points {
		t.Fatalf("stats.Points = %d, table points = %d", stats.Points, points)
	}
	if stats.Cycles <= 0 {
		t.Fatalf("stats.Cycles = %d, want > 0", stats.Cycles)
	}
	if stats.Workers != 4 {
		t.Fatalf("stats.Workers = %d, want 4", stats.Workers)
	}
	if stats.PointsPerSec() <= 0 || stats.CyclesPerSec() <= 0 {
		t.Fatalf("rates not positive: %+v", stats)
	}
}

// TestRunIDsUnknownID checks the batch API's error path.
func TestRunIDsUnknownID(t *testing.T) {
	if _, _, err := RunIDs([]string{"a8", "zz"}, Options{Quick: true, Seed: 1}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestOnPointEvents checks that the structured per-point callback fires once
// per point with populated measurements, serialized across pool workers.
func TestOnPointEvents(t *testing.T) {
	var events []PointEvent
	tab, err := Run("a8", Options{Quick: true, Seed: 1, Workers: 4,
		OnPoint: func(ev PointEvent) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	var points int
	for _, s := range tab.Series {
		points += len(s.Points)
	}
	if len(events) != points {
		t.Fatalf("got %d events for %d points", len(events), points)
	}
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("point %s x=%g failed: %v", ev.Tag, ev.X, ev.Err)
		}
		if ev.Tag == "" || ev.Cycles <= 0 {
			t.Fatalf("incomplete event: %+v", ev)
		}
	}
}

// TestSweepObserver checks that attaching an occupancy observer records a
// summary per point tag, surfaces the aggregate in SweepStats, and leaves the
// rendered table byte-identical to an unobserved run.
func TestSweepObserver(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweeps skipped in -short mode")
	}
	ob := &obs.SweepObserver{}
	tables, stats, err := RunIDs([]string{"a2"}, Options{Quick: true, Seed: 1, Workers: 4, Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	agg := ob.Aggregate()
	if agg.Samples == 0 {
		t.Fatal("observer recorded no samples")
	}
	if agg.PeakOccupancy() == 0 {
		t.Fatalf("observer saw no buffer occupancy: %+v", agg)
	}
	if stats.Occupancy != agg {
		t.Fatalf("SweepStats.Occupancy %+v != observer aggregate %+v", stats.Occupancy, agg)
	}
	// Every resolved point recorded under its own tag.
	tagged := 0
	for _, tab := range tables {
		for _, s := range tab.Series {
			tagged += len(s.Points)
		}
	}
	if len(ob.Points()) != tagged {
		t.Fatalf("observer holds %d tags for %d points", len(ob.Points()), tagged)
	}

	// Observation must not perturb the measured tables.
	plain := renderWith(t, "a2", 4)
	var buf bytes.Buffer
	tables[0].Format(&buf)
	if !bytes.Equal(plain, buf.Bytes()) {
		t.Errorf("observed sweep rendered a different table:\n--- plain ---\n%s\n--- observed ---\n%s", plain, buf.Bytes())
	}
}

// TestCanceledSweep checks that an already-canceled context fails pending
// points with the context's error and surfaces it from Run.
func TestCanceledSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tab, err := Run("a8", Options{Quick: true, Seed: 1, Workers: 2, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tab == nil {
		t.Fatal("canceled run returned no table")
	}
	for _, s := range tab.Series {
		for _, p := range s.Points {
			if !errors.Is(p.Err, context.Canceled) {
				t.Fatalf("%s x=%g: Err = %v, want context.Canceled", s.Name, p.X, p.Err)
			}
		}
	}
}
