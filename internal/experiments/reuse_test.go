package experiments

import (
	"bytes"
	"testing"

	"mdworm/internal/flit"
)

// TestRecycledMemoryMatchesFresh runs the quick suite with every released
// run's memory poisoned and handed to the next run, and requires the
// rendered tables to equal — byte for byte — a sweep in which every run
// allocates fresh memory. A run that reads a recycled object it did not
// initialize, a release that comes before the results are copied out, or
// two live runs sharing a chunk would all change the output.
func TestRecycledMemoryMatchesFresh(t *testing.T) {
	ids := IDs()
	switch {
	case raceEnabled: // standard, single-op, barrier, deadlocking and collective runs
		ids = []string{"e8", "a5", "a8", "a10", "c1", "c2"}
	case testing.Short():
		ids = []string{"e1", "e3", "e8", "a8", "a10", "c1"}
	}
	render := func(workers int) string {
		tables, st, err := RunIDs(ids, Options{Quick: true, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Runs < 2 {
			t.Fatalf("workers=%d: %d runs, nothing to recycle", workers, st.Runs)
		}
		var b bytes.Buffer
		for _, tb := range tables {
			tb.Format(&b)
		}
		return b.String()
	}

	restore := flit.SetRecycle(flit.RecycleNone)
	fresh := render(1)
	restore()

	defer flit.SetRecycle(flit.RecyclePoison)()
	for _, workers := range []int{1, 3} {
		if got := render(workers); got != fresh {
			t.Fatalf("workers=%d: tables on recycled, poisoned memory differ from fresh memory\n--- fresh\n%s\n--- recycled\n%s",
				workers, fresh, got)
		}
	}
}
