// Package switches holds the plumbing shared by the switch
// microarchitectures: port/link bundles, round-robin arbitration, and the
// branch planner that turns a routing decision into forked child worms.
package switches

import (
	"mdworm/internal/bitset"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/routing"
	"mdworm/internal/topology"
)

// PortIO bundles the two unidirectional links of one bidirectional port.
type PortIO struct {
	// In carries flits arriving into the switch on this port.
	In *engine.Link
	// Out carries flits leaving the switch on this port.
	Out *engine.Link
}

// Ascending reports whether a worm arriving on the given port of sw is
// still on its way up: down ports receive traffic from below (processors or
// lower stages), up ports receive traffic descending from above.
func Ascending(sw *topology.Switch, port int) bool {
	return sw.Ports[port].Kind == topology.Down
}

// Planned is one output branch of a worm at a switch, carrying the forked
// child worm that continues on that port.
type Planned struct {
	Port  int
	Child *flit.Worm
}

// PlanBranches routes worm w arriving at sw (ascending or descending) and
// forks one child worm per branch, appending the branches to plans[:0] —
// the deciding input's own buffer — and returning it. dec is the switch's
// routing scratch (see routing.Decision); children and their destination
// sets come from the run's arena, so a healthy decode allocates nothing.
// free reports whether an output port is currently unbound (consulted by
// the adaptive up policy); rng drives the random up policy. dead, when
// non-nil, marks output ports whose links have failed: the plan routes
// around them and the second result carries the destinations that became
// unreachable, for the caller to account as dropped. A plan may
// legitimately be empty when every branch died.
func PlanBranches(r *routing.Router, sw *topology.Switch, w *flit.Worm, ascending bool,
	free func(port int) bool, dead func(port int) bool,
	rng *engine.RNG, ids *engine.IDGen, arena *flit.Arena,
	dec *routing.Decision, plans []Planned) ([]Planned, bitset.Set, error) {

	dropped, err := r.RouteAvoid(dec, sw, w.Dests, ascending, dead)
	if err != nil {
		return plans[:0], bitset.Set{}, err
	}
	plans = plans[:0]
	for i := range dec.Down {
		b := &dec.Down[i]
		plans = append(plans, Planned{Port: b.Port, Child: fork(w, b.Dests, false, ids, arena)})
	}
	if !dec.UpDests.Empty() {
		port := r.PickUp(dec, w.Msg, free, rng)
		plans = append(plans, Planned{Port: port, Child: fork(w, dec.UpDests, true, ids, arena)})
	}
	return plans, dropped, nil
}

// AnyDeadOut reports whether any output link of the port set has failed.
// Switch decoders use it to skip fault-avoidance routing entirely on a
// healthy fabric.
func AnyDeadOut(ports []PortIO) bool {
	for i := range ports {
		if out := ports[i].Out; out != nil && out.Dead() {
			return true
		}
	}
	return false
}

func fork(w *flit.Worm, dests bitset.Set, goingUp bool, ids *engine.IDGen, arena *flit.Arena) *flit.Worm {
	child := arena.Worm()
	*child = flit.Worm{
		ID:      ids.Next(),
		Msg:     w.Msg,
		Dests:   arena.Set(dests),
		GoingUp: goingUp,
		Hops:    w.Hops + 1,
	}
	return child
}

// PopFront removes the first element of a FIFO kept in a slice, in place:
// the rest shifts down, so the backing array keeps its full capacity for
// later appends. Re-slicing q[1:] instead strands the front slot, and a
// queue fed by append then reallocates every time it wraps. Switch queues
// are short (bounded by buffer space), so the shift is cheap.
func PopFront[T any](q []T) []T {
	n := copy(q, q[1:])
	var zero T
	q[n] = zero
	return q[:n]
}

// AppendRecord extends a slice of record pointers by one and returns the
// new record, reusing the one an earlier use of the slice left in its spare
// capacity, so a switch that truncates its record slices instead of
// dropping them allocates records only up to its high-water mark. The
// caller overwrites the record in full.
func AppendRecord[T any](recs []*T) ([]*T, *T) {
	if len(recs) < cap(recs) {
		recs = recs[:len(recs)+1]
		if r := recs[len(recs)-1]; r != nil {
			return recs, r
		}
	} else {
		recs = append(recs, nil)
	}
	r := new(T)
	recs[len(recs)-1] = r
	return recs, r
}

// RoundRobin is a fair pick-one arbiter over n requesters.
type RoundRobin struct {
	n    int
	last int
}

// NewRoundRobin returns an arbiter over n requesters.
func NewRoundRobin(n int) *RoundRobin {
	return &RoundRobin{n: n, last: n - 1}
}

// Pick returns the first requester after the previous grant for which want
// returns true, or -1 if none. A successful pick advances the pointer.
func (rr *RoundRobin) Pick(want func(i int) bool) int {
	for k := 1; k <= rr.n; k++ {
		i := (rr.last + k) % rr.n
		if want(i) {
			rr.last = i
			return i
		}
	}
	return -1
}

// Occupancy is an instantaneous snapshot of the buffered state inside one
// switch, taken by the observability probe between cycles.
type Occupancy struct {
	// InputFlits is the total number of flits buffered across input
	// FIFOs/buffers.
	InputFlits int
	// MaxInputQ is the deepest single input FIFO/buffer.
	MaxInputQ int
	// OutputFlits is the total staged in output FIFOs (central-buffer
	// model only; the input-buffered model has no output staging).
	OutputFlits int
	// CBChunks is the number of central-buffer chunks currently allocated
	// (central-buffer model only).
	CBChunks int
}

// Stats aggregates counters common to all switch models.
type Stats struct {
	FlitsIn      int64 // flits accepted from input links
	FlitsOut     int64 // flits pushed onto output links
	Decodes      int64 // routing decisions made
	Replications int64 // extra branches created (branches beyond the first)
	WormsDropped int64 // branches abandoned because of injected faults
	DestsDropped int64 // destinations those branches would have covered
}
