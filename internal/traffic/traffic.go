// Package traffic generates the workloads of the paper's evaluation:
// multiple multicast (every node issues multicasts), bimodal traffic
// (unicast background plus a multicast component), and pure unicast, with
// Bernoulli arrivals per node and uniformly random destination selection.
package traffic

import (
	"fmt"
	"math"

	"mdworm/internal/engine"
)

// Spec describes a stochastic workload.
type Spec struct {
	// OpRate is the probability, per node per cycle, of generating a new
	// operation (Bernoulli arrivals).
	OpRate float64
	// MulticastFraction is the probability that a generated operation is
	// a multicast; the rest are unicasts. 1.0 gives the multiple-multicast
	// workload, 0.0 pure unicast.
	MulticastFraction float64
	// Degree is the number of destinations of each multicast.
	Degree int
	// UniPayloadFlits and McastPayloadFlits are the payload lengths.
	UniPayloadFlits   int
	McastPayloadFlits int

	// HotSpotFraction sends that fraction of unicast messages to HotSpotNode
	// instead of a uniform destination, modeling the hot-spot traffic the
	// paper lists as future work. Zero disables it.
	HotSpotFraction float64
	// HotSpotNode is the hot destination (ignored when HotSpotFraction is 0).
	HotSpotNode int
}

// Validate checks the spec against the system size.
func (s Spec) Validate(n int) error {
	switch {
	case s.OpRate < 0 || s.OpRate > 1:
		return fmt.Errorf("traffic: OpRate %g outside [0,1]", s.OpRate)
	case s.MulticastFraction < 0 || s.MulticastFraction > 1:
		return fmt.Errorf("traffic: MulticastFraction %g outside [0,1]", s.MulticastFraction)
	case s.MulticastFraction > 0 && (s.Degree < 1 || s.Degree > n-1):
		return fmt.Errorf("traffic: Degree %d outside [1,%d]", s.Degree, n-1)
	case s.HotSpotFraction < 0 || s.HotSpotFraction > 1:
		return fmt.Errorf("traffic: HotSpotFraction %g outside [0,1]", s.HotSpotFraction)
	case s.HotSpotFraction > 0 && (s.HotSpotNode < 0 || s.HotSpotNode >= n):
		return fmt.Errorf("traffic: HotSpotNode %d outside [0,%d)", s.HotSpotNode, n)
	case s.MulticastFraction > 0 && s.McastPayloadFlits < 1,
		s.MulticastFraction < 1 && s.UniPayloadFlits < 1:
		return fmt.Errorf("traffic: payload must be >= 1 flit")
	}
	return nil
}

// MeanDeliveredPayloadFlits returns the expected payload flits *delivered*
// per operation: a multicast to d destinations delivers d copies. This is
// the natural capacity axis for multicast workloads — each node can eject at
// most one flit per cycle, so delivered demand saturates near 1.0 regardless
// of scheme, and schemes differ in how much injected traffic, host overhead,
// and network contention they need to meet the same delivered demand.
func (s Spec) MeanDeliveredPayloadFlits() float64 {
	return s.MulticastFraction*float64(s.Degree*s.McastPayloadFlits) +
		(1-s.MulticastFraction)*float64(s.UniPayloadFlits)
}

// RateForLoad converts an offered load, expressed in delivered payload flits
// per node per cycle, into the per-node operation rate.
func (s Spec) RateForLoad(load float64) float64 {
	return load / s.MeanDeliveredPayloadFlits()
}

// Request is one generated operation before planning.
type Request struct {
	Src       int
	Dests     []int
	Multicast bool
	Payload   int
}

// Generator draws requests deterministically from per-node random streams.
// Each node's stream takes one Bernoulli draw per generating cycle, plus the
// request draws of every arrival. Instead of drawing every node every cycle,
// the generator draws each stream ahead, cycle by cycle, to the node's next
// arrival or to the end of its window, and records that cycle; cycles before
// the earliest recorded arrival cost nothing. The stream positions it reports
// are the ones per-cycle drawing would have reached.
type Generator struct {
	spec  Spec
	nodes []stream
	end   int64 // first cycle of the window that draws nothing
	next  int64 // earliest recorded arrival, noArrival if none
}

// stream is one node's draw-ahead state: base is its position at the start
// of cycle from, and at is the first cycle in [from, end) whose Bernoulli
// draw succeeds — the node's next arrival — or noArrival if none does.
type stream struct {
	base uint64
	from int64
	at   int64
}

// noArrival marks a stream with no arrival left in the window.
const noArrival = math.MaxInt64

// NewGenerator creates a generator for n nodes seeded from seed. Each node
// has an independent stream, so results are insensitive to evaluation order.
// The generator draws nothing until SetWindow opens a window.
func NewGenerator(spec Spec, n int, seed uint64) (*Generator, error) {
	if err := spec.Validate(n); err != nil {
		return nil, err
	}
	root := engine.NewRNG(seed)
	g := &Generator{spec: spec, nodes: make([]stream, n), next: noArrival}
	for i := range g.nodes {
		g.nodes[i] = stream{base: root.Fork(uint64(i)).State(), at: noArrival}
	}
	return g, nil
}

// Spec returns the generator's workload spec.
func (g *Generator) Spec() Spec { return g.spec }

// position returns the stream position of st at the start of cycle now: one
// draw per window cycle in [from, now), none past the window's end.
func (g *Generator) position(st *stream, now int64) uint64 {
	rng := engine.NewRNG(st.base)
	rng.Skip(uint64(min(now, g.end) - st.from))
	return rng.State()
}

// SetWindow makes the generator draw once per cycle in [now, end), starting
// from every stream's position at now. SetWindow(now, now) stops generation
// with the positions frozen at now.
func (g *Generator) SetWindow(now, end int64) {
	for i := range g.nodes {
		st := &g.nodes[i]
		st.base = g.position(st, now)
		st.from = now
	}
	g.end = max(end, now)
	g.next = noArrival
	for i := range g.nodes {
		g.scan(&g.nodes[i])
		g.next = min(g.next, g.nodes[i].at)
	}
}

// scan draws st ahead from the start of cycle st.from, one Bernoulli per
// cycle, and records the first cycle whose draw succeeds.
func (g *Generator) scan(st *stream) {
	rng := engine.NewRNG(st.base)
	st.at = st.from + rng.BernoulliRun(g.spec.OpRate, g.end-st.from)
	if st.at >= g.end {
		st.at = noArrival
	}
}

// Next returns the earliest cycle at which a node has an arrival, or
// math.MaxInt64 if no arrival is left in the window.
func (g *Generator) Next() int64 { return g.next }

// Arrivals appends the operations the nodes generate in cycle now, in node
// order, and draws each generating node ahead to its next arrival. Cycles
// must be visited in order, none skipped before Next.
func (g *Generator) Arrivals(now int64, dst []Request) []Request {
	if now < g.next {
		return dst
	}
	g.next = noArrival
	for node := range g.nodes {
		st := &g.nodes[node]
		if st.at < now {
			panic(fmt.Sprintf("traffic: node %d's arrival at cycle %d skipped (now %d)", node, st.at, now))
		}
		if st.at == now {
			// Resume after this cycle's successful arrival draw.
			rng := engine.NewRNG(g.position(st, now))
			rng.Skip(1)
			dst = append(dst, g.request(node, rng))
			st.base, st.from = rng.State(), now+1
			g.scan(st)
		}
		g.next = min(g.next, st.at)
	}
	return dst
}

// request draws the body of an operation node generates, after its arrival
// draw.
func (g *Generator) request(node int, rng *engine.RNG) Request {
	n := len(g.nodes)
	req := Request{Src: node}
	if rng.Bernoulli(g.spec.MulticastFraction) {
		req.Multicast = true
		req.Payload = g.spec.McastPayloadFlits
		req.Dests = rng.Sample(n, g.spec.Degree, map[int]bool{node: true})
	} else {
		req.Payload = g.spec.UniPayloadFlits
		if g.spec.HotSpotFraction > 0 && node != g.spec.HotSpotNode &&
			rng.Bernoulli(g.spec.HotSpotFraction) {
			req.Dests = []int{g.spec.HotSpotNode}
		} else {
			req.Dests = []int{pickOther(rng, n, node)}
		}
	}
	return req
}

func pickOther(rng *engine.RNG, n, self int) int {
	d := rng.Intn(n - 1)
	if d >= self {
		d++
	}
	return d
}

// Skew deterministically staggers the entry of collective participants: a
// stateless function of (seed, rep, node), so checkpoints need not carry it
// and any replica computes the identical stagger. At returns a delay in
// [0, Max] cycles; a zero or negative Max disables skew entirely.
type Skew struct {
	Seed uint64
	Max  int64
}

// At returns the entry delay of the node in the given rep.
func (k Skew) At(rep, node int) int64 {
	if k.Max <= 0 {
		return 0
	}
	rng := engine.NewRNG(k.Seed).Fork(uint64(rep)).Fork(uint64(node))
	return int64(rng.Uint64() % uint64(k.Max+1))
}
