package switches_test

import (
	"fmt"
	"runtime"
	"testing"

	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/routing"
	"mdworm/internal/switches"
	"mdworm/internal/switches/centralbuf"
	"mdworm/internal/switches/inputbuf"
	"mdworm/internal/topology"
)

// Layer benchmark for routing branch-set computation: one op sends one worm
// from processor 0 through an idle 4-ary 3-stage fabric (64 processor
// ports) until every destination has its tail, so it covers each switch's
// decode — route, fork of the child worms, and the organization's branch
// records (CB packet buffers, IB branch records) — plus the flits' trip.

// oneShot injects its armed worm one flit per cycle as credits allow.
type oneShot struct {
	link *engine.Link
	w    *flit.Worm
	next int
}

func (s *oneShot) Name() string   { return "one-shot" }
func (s *oneShot) Quiesced() bool { return true }
func (s *oneShot) Step(now int64) {
	if s.w == nil || !s.link.CanSend(now) {
		return
	}
	s.link.Send(now, flit.Ref{W: s.w, Idx: s.next})
	if s.next++; s.next == s.w.Len() {
		s.w, s.next = nil, 0
	}
}

// tailSink consumes one flit per cycle and counts delivered tails.
type tailSink struct {
	link  *engine.Link
	tails *int
}

func (s *tailSink) Name() string   { return "tail-sink" }
func (s *tailSink) Quiesced() bool { return true }
func (s *tailSink) Step(now int64) {
	if _, ok := s.link.Arrived(now); ok {
		if s.link.TakeArrived(now).Tail() {
			*s.tails++
		}
		s.link.ReturnCredit(now, 1)
	}
}

type decodeRig struct {
	net     *topology.Network
	sim     *engine.Simulation
	inj     *oneShot
	tails   int
	decodes []func() int64
}

func newCBDecode(node *topology.Switch, router *routing.Router, ports []switches.PortIO,
	rng *engine.RNG, ids *engine.IDGen, sim *engine.Simulation) (engine.Component, func() int64) {
	sw := centralbuf.New(centralbuf.DefaultConfig(), node, router, ports, rng, ids, sim)
	return sw, func() int64 { return sw.Stats().Decodes }
}

func newIBDecode(node *topology.Switch, router *routing.Router, ports []switches.PortIO,
	rng *engine.RNG, ids *engine.IDGen, sim *engine.Simulation) (engine.Component, func() int64) {
	sw := inputbuf.New(inputbuf.DefaultConfig(), node, router, ports, rng, ids, sim)
	return sw, func() int64 { return sw.Stats().Decodes }
}

func buildDecodeRig(tb testing.TB, mk newSwitch, credits int) *decodeRig {
	tb.Helper()
	net, err := topology.NewKaryTree(4, 3)
	if err != nil {
		tb.Fatal(err)
	}
	r := &decodeRig{net: net, sim: engine.NewSimulation(0)}
	router := &routing.Router{Net: net, ReplicateOnUpPath: true, Policy: routing.UpHash}
	ports := make([][]switches.PortIO, len(net.Switches))
	for i, sw := range net.Switches {
		ports[i] = make([]switches.PortIO, sw.NumPorts())
	}
	for _, sw := range net.Switches {
		for pn := range sw.Ports {
			pt := &sw.Ports[pn]
			if pt.PeerSwitch < 0 || pt.Kind != topology.Down {
				continue
			}
			down := r.sim.NewLink(fmt.Sprintf("sw%d.p%d-down", sw.ID, pn), 1, credits)
			up := r.sim.NewLink(fmt.Sprintf("sw%d.p%d-up", sw.ID, pn), 1, credits)
			ports[sw.ID][pn].Out = down
			ports[pt.PeerSwitch][pt.PeerPort].In = down
			ports[pt.PeerSwitch][pt.PeerPort].Out = up
			ports[sw.ID][pn].In = up
		}
	}
	for p := 0; p < net.N; p++ {
		swID, pn := net.ProcAttach(p)
		inj := r.sim.NewLink(fmt.Sprintf("src%d", p), 1, credits)
		ej := r.sim.NewLink(fmt.Sprintf("snk%d", p), 1, 8)
		ports[swID][pn].In = inj
		ports[swID][pn].Out = ej
		if p == 0 {
			r.inj = &oneShot{link: inj}
			r.sim.AddComponent(r.inj)
		}
		r.sim.AddComponent(&tailSink{link: ej, tails: &r.tails})
	}
	ids := &engine.IDGen{}
	for _, node := range net.Switches {
		sw, decodes := mk(node, router, ports[node.ID], engine.NewRNG(uint64(node.ID)+1), ids, r.sim)
		r.sim.AddComponent(sw)
		var ins []*engine.Link
		for _, pio := range ports[node.ID] {
			ins = append(ins, pio.In)
		}
		r.sim.DeclareInputs(sw, ins...)
		r.decodes = append(r.decodes, decodes)
	}
	return r
}

// send injects w and steps until every destination received its tail.
func (r *decodeRig) send(tb testing.TB, w *flit.Worm) {
	want := r.tails + len(w.Msg.Dests)
	r.inj.w = w
	for i := 0; r.tails < want; i++ {
		if i == 10_000 {
			tb.Fatalf("worm %d undelivered after %d cycles", w.ID, i)
		}
		r.sim.Step()
	}
}

func (r *decodeRig) decodeCount() int64 {
	var n int64
	for _, d := range r.decodes {
		n += d()
	}
	return n
}

// decodeCases are the organizations and worms under test: a unicast across
// the fabric's root and a degree-16 multicast spread over all four
// first-stage subtrees, both 8 flits long.
func decodeCases(net *topology.Network) []struct {
	name    string
	mk      newSwitch
	credits int
	w       *flit.Worm
} {
	var mcast []int
	for d := 1; len(mcast) < 16; d += 3 {
		mcast = append(mcast, d)
	}
	uni := worm(net, 1, 0, []int{net.N - 1}, 7)
	multi := worm(net, 2, 0, mcast, 7)
	cb, ib := centralbuf.DefaultConfig().InFIFOFlits, inputbuf.DefaultConfig().BufFlits
	return []struct {
		name    string
		mk      newSwitch
		credits int
		w       *flit.Worm
	}{
		{"cb/unicast", newCBDecode, cb, uni},
		{"cb/multicast16", newCBDecode, cb, multi},
		{"ib/unicast", newIBDecode, ib, uni},
		{"ib/multicast16", newIBDecode, ib, multi},
	}
}

// decodeWarmOps warms the decode scratch, the record free lists and the
// kernel's event wheel, whose buckets grow until each has seen its busiest
// cycle.
const decodeWarmOps = 1000

func BenchmarkDecode(b *testing.B) {
	net, err := topology.NewKaryTree(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range decodeCases(net) {
		b.Run(c.name, func(b *testing.B) {
			r := buildDecodeRig(b, c.mk, c.credits)
			for i := 0; i < decodeWarmOps; i++ {
				r.send(b, c.w)
			}
			before := r.decodeCount()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.send(b, c.w)
			}
			b.StopTimer()
			b.ReportMetric(float64(r.decodeCount()-before)/float64(b.N), "decodes/op")
		})
	}
}

// TestDecodeSteadyStateAllocs pins both organizations' decode path at zero
// heap allocations once warm: the routing decision, the branch plan and the
// branch records are reused, and child worms and their destination sets
// come from the run's arena, whose only allocations are chunk refills (one
// per 64 objects, recycled across runs by Release). Apart from those
// refills, the measured ops must not allocate.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	net, err := topology.NewKaryTree(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range decodeCases(net) {
		r := buildDecodeRig(t, c.mk, c.credits)
		for i := 0; i < decodeWarmOps; i++ {
			r.send(t, c.w)
		}
		const ops = 200
		decodes := r.decodeCount()
		chunks := r.sim.Arena().Chunks()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			r.send(t, c.w)
		}
		runtime.ReadMemStats(&after)
		refills := int64(r.sim.Arena().Chunks() - chunks)
		// Per op and rounded down, as testing.AllocsPerRun counts: the
		// runtime's own one-off allocations (a collection re-creating the
		// chunk pools' per-processor caches, scavenger start-up) may land
		// in the window, but one allocation per decode is 5-16 per op.
		if perOp := (int64(after.Mallocs-before.Mallocs) - refills) / ops; perOp != 0 {
			t.Errorf("%s: %d heap allocations per op beyond arena chunk refills, want 0", c.name, perOp)
		}
		if n := r.decodeCount() - decodes; n < ops {
			t.Errorf("%s: only %d decodes in %d ops", c.name, n, ops)
		}
	}
}
