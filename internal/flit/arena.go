package flit

import (
	"sync"

	"mdworm/internal/bitset"
)

// Arena allocates one run's model objects — worms, the words of their
// destination sets, messages and ops — from fixed-size chunks. A branching
// multicast forks a worm per output port at every switch, so these
// short-lived headers dominate the allocation profile of a loaded run;
// carving them from chunks replaces per-object heap allocations with a
// pointer bump.
//
// Reuse policy: an object is never reused within its run, so arena
// allocation cannot alias live state and checkpoint object graphs (keyed by
// pointer identity) are unaffected. The arena remembers the first
// keptChunks chunks of each kind it took; once the run's owner has copied
// its results out it calls Release, which wipes those chunks and hands them
// to the next run through process-wide pools. Objects are therefore
// allocated once per run and never shared between runs that are live at the
// same time. Chunks past that count are not remembered, so a long run's
// retired worms, messages and ops are collected by the garbage collector as
// they retire and its live heap follows its live traffic; an arena that is
// never released is collected with its run.
//
// New objects come from wiped (zeroed) chunks, but callers must still
// initialize every field: under the RecyclePoison test policy released
// chunks are filled with garbage instead, which makes any read of a field
// the caller forgot to set visible as a changed result.
type Arena struct {
	worms Slab[Worm]
	msgs  Slab[Message]
	ops   Slab[Op]
	words Slab[uint64]
}

const arenaChunk = 64

// keptChunks bounds the chunks a Slab remembers for Release, and so the
// memory a long run holds beyond its live objects: 1.5 MB for messages or
// ops, 1 MB for worms. It covers 128 of the quick suite's 130 runs; the
// other two (up to 330 chunks of worms) recycle their first 256 chunks
// and leave the rest to the garbage collector.
const keptChunks = 256

// Slab carves objects of one kind from chunks of arenaChunk and keeps the
// first keptChunks it took, linked newest first, for Release; the list
// costs no allocation. The zero Slab is empty and ready to use.
type Slab[T any] struct {
	free []T       // unused tail of the newest chunk
	last *chunk[T] // newest chunk kept for Release
	n    int       // chunks taken this run, kept or not
}

type chunk[T any] struct {
	objs [arenaChunk]T
	prev *chunk[T] // the chunk kept before this one
}

// ChunkPool hands the chunks that runs release to later runs. sync.Pool
// drops idle chunks across garbage collections, so a pause in the work
// returns them to the heap instead of pinning a high-water mark.
type ChunkPool[T any] struct {
	pool   sync.Pool
	poison T // what a release writes over objects under RecyclePoison
}

// NewChunkPool returns a pool whose released objects are overwritten with
// poison under the RecyclePoison test policy, and with zeros otherwise.
func NewChunkPool[T any](poison T) *ChunkPool[T] { return &ChunkPool[T]{poison: poison} }

// Process-wide chunk pools of the arena, one per object kind.
var (
	wormPool = NewChunkPool(poisonWorm)
	msgPool  = NewChunkPool(poisonMsg)
	opPool   = NewChunkPool(poisonOp)
	wordPool = NewChunkPool[uint64](poisonWord)
)

// Take returns n contiguous objects (n <= arenaChunk), starting a chunk
// from p when the current one is short. New objects are wiped, but callers
// must still initialize every field (see RecyclePoison).
func (s *Slab[T]) Take(p *ChunkPool[T], n int) []T {
	if len(s.free) < n {
		c, _ := p.pool.Get().(*chunk[T])
		if c == nil {
			c = new(chunk[T])
		}
		if s.n < keptChunks {
			c.prev, s.last = s.last, c
		}
		s.n++
		s.free = c.objs[:]
	}
	o := s.free[:n:n]
	s.free = s.free[n:]
	return o
}

// Chunks returns the number of chunks the slab took so far.
func (s *Slab[T]) Chunks() int { return s.n }

// Release wipes the chunks the slab kept and puts them in p for the next
// run, as the process's Recycle policy says, and empties the slab. The
// caller guarantees that nothing uses the slab's objects afterwards.
func (s *Slab[T]) Release(p *ChunkPool[T]) {
	if recycle != RecycleNone {
		var wipe T
		if recycle == RecyclePoison {
			wipe = p.poison
		}
		for c := s.last; c != nil; {
			prev := c.prev
			for i := range c.objs {
				c.objs[i] = wipe
			}
			c.prev = nil
			p.pool.Put(c)
			c = prev
		}
	}
	*s = Slab[T]{}
}

// Worm returns a Worm for the caller to initialize in full.
func (a *Arena) Worm() *Worm { return &a.worms.Take(wormPool, 1)[0] }

// Message returns a Message for the caller to initialize in full.
func (a *Arena) Message() *Message { return &a.msgs.Take(msgPool, 1)[0] }

// Op returns an Op initialized exactly like NewOp.
func (a *Arena) Op(id uint64, class Class, src, numDests int, created int64) *Op {
	op := &a.ops.Take(opPool, 1)[0]
	*op = Op{
		ID:        id,
		Class:     class,
		Src:       src,
		NumDests:  numDests,
		Created:   created,
		remaining: numDests,
	}
	return op
}

// NewSet returns an empty set of capacity n whose words come from the
// arena: the destination set of a new worm. Sets wider than a chunk fall
// back to the heap.
func (a *Arena) NewSet(n int) bitset.Set {
	k := bitset.WordsFor(n)
	if k > arenaChunk {
		return bitset.New(n)
	}
	w := a.words.Take(wordPool, k)
	clear(w)
	return bitset.Over(w, n)
}

// Set returns a copy of src whose words come from the arena.
func (a *Arena) Set(src bitset.Set) bitset.Set {
	s := a.NewSet(src.Cap())
	copy(s.Words(), src.Words())
	return s
}

// Chunks returns the number of chunks the arena took from the pools or the
// heap so far; tests use it to tell chunk refills from other allocations.
func (a *Arena) Chunks() int {
	return a.worms.Chunks() + a.msgs.Chunks() + a.ops.Chunks() + a.words.Chunks()
}

// Release wipes the chunks the arena kept and returns them to the pools
// for the next run. The caller guarantees that nothing reads the run's
// worms, messages or ops afterwards.
func (a *Arena) Release() {
	a.worms.Release(wormPool)
	a.msgs.Release(msgPool)
	a.ops.Release(opPool)
	a.words.Release(wordPool)
}

// Recycle selects what a Slab release does with a run's memory. Only tests
// change it (SetRecycle).
type Recycle uint8

const (
	// RecycleZero wipes released chunks with zeros and pools them: the
	// default.
	RecycleZero Recycle = iota
	// RecyclePoison wipes released chunks with garbage and pools them, so
	// a run that reads an object it did not initialize, or that keeps
	// using a released one, produces different results.
	RecyclePoison
	// RecycleNone drops released chunks: every run allocates fresh ones.
	RecycleNone
)

var recycle Recycle

// SetRecycle is a test hook that switches the release policy of every run
// in the process and returns a function restoring the previous one. It
// must not be called while any run is live.
func SetRecycle(r Recycle) (restore func()) {
	prev := recycle
	recycle = r
	return func() { recycle = prev }
}

// Garbage written over released objects under RecyclePoison: implausible
// ids, negative counts and a sentinel message, all still valid Go values.
const poisonWord = 0xdeadbeefdeadbeef

var (
	poisonMsg  = Message{ID: poisonWord, Src: -1, PayloadFlits: -1, HeaderFlits: -1, Created: -1, InjectedAt: -1}
	poisonWorm = Worm{ID: poisonWord, Msg: &poisonMsg, GoingUp: true, Hops: -1, cachedLen: -1}
	poisonOp   = Op{ID: poisonWord, Src: -1, NumDests: -1, Created: -1, Phases: -1, remaining: -1,
		FirstArrival: -1, LastArrival: -1, SumArrival: -1, MessagesSent: -1, Dropped: -1}
)
