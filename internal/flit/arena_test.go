package flit

import (
	"testing"

	"mdworm/internal/bitset"
)

// TestArenaReleaseWipesAndRecycles checks the run-scoped reuse policy: a
// released chunk is wiped (with zeros, or with garbage under
// RecyclePoison) and a later arena takes it from the pool, while objects
// of one arena never overlap.
func TestArenaReleaseWipesAndRecycles(t *testing.T) {
	defer SetRecycle(RecyclePoison)()
	var a Arena
	seen := map[*Worm]bool{}
	var first *Worm
	for i := 0; i < 3*arenaChunk; i++ {
		w := a.Worm()
		if seen[w] {
			t.Fatalf("worm %d handed out twice in one run", i)
		}
		seen[w] = true
		*w = Worm{ID: uint64(i + 1), Dests: a.Set(bitset.FromSlice(70, []int{3, 69}))}
		if first == nil {
			first = w
		}
	}
	// Three chunks of worms, and 2 words a set for 192 sets: six of words.
	if got := a.Chunks(); got != 3+6 {
		t.Fatalf("arena holds %d chunks, want 9", got)
	}
	a.Release()
	if a.Chunks() != 0 {
		t.Fatalf("released arena still holds %d chunks", a.Chunks())
	}
	if first.ID != poisonWord || first.Msg != &poisonMsg {
		t.Fatalf("released worm not poisoned: %+v", *first)
	}

	// sync.Pool may drop a released chunk (the race detector drops some on
	// purpose), so allow a few rounds for a recycled one to come back.
	reused := false
	for round := 0; round < 20 && !reused; round++ {
		var b Arena
		for i := 0; i < arenaChunk; i++ {
			reused = reused || seen[b.Worm()]
		}
		b.Release()
	}
	if !reused {
		t.Fatal("no released worm chunk was ever handed to a later arena")
	}
}

// TestArenaSetCopies checks that arena sets are independent copies with the
// source's capacity, including sets wider than a chunk.
func TestArenaSetCopies(t *testing.T) {
	var a Arena
	for _, n := range []int{1, 64, 65, 64 * arenaChunk, 64*arenaChunk + 1} {
		src := bitset.FromSlice(n, []int{0, n - 1})
		got := a.Set(src)
		if got.Cap() != n || !got.Equal(src) {
			t.Fatalf("n=%d: arena set %v (cap %d), want %v", n, got, got.Cap(), src)
		}
		src.Remove(0)
		if !got.Has(0) {
			t.Fatalf("n=%d: arena set aliases its source", n)
		}
	}
}

// TestSlabKeepsBoundedChunks checks that a slab remembers only its first
// keptChunks chunks for Release: later chunks are left to the garbage
// collector, so a long run does not keep every object it ever allocated
// reachable.
func TestSlabKeepsBoundedChunks(t *testing.T) {
	defer SetRecycle(RecyclePoison)()
	pool := NewChunkPool(-1)
	var s Slab[int]
	var firsts []*int // the first object of every chunk, in order
	for i := 0; i < keptChunks+3; i++ {
		firsts = append(firsts, &s.Take(pool, arenaChunk)[0])
	}
	if s.Chunks() != keptChunks+3 {
		t.Fatalf("slab took %d chunks, want %d", s.Chunks(), keptChunks+3)
	}
	kept := 0
	for c := s.last; c != nil; c = c.prev {
		kept++
	}
	if kept != keptChunks {
		t.Fatalf("slab keeps %d chunks for Release, want %d", kept, keptChunks)
	}
	s.Release(pool)
	for i, p := range firsts {
		if poisoned := *p == -1; poisoned != (i < keptChunks) {
			t.Fatalf("chunk %d: poisoned=%v after Release, want %v", i, poisoned, i < keptChunks)
		}
	}
}
