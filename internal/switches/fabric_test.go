package switches_test

import (
	"fmt"
	"testing"

	"mdworm/internal/bitset"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/routing"
	"mdworm/internal/switches"
	"mdworm/internal/switches/centralbuf"
	"mdworm/internal/switches/inputbuf"
	"mdworm/internal/topology"
)

// Layer benchmarks for the two switch organizations: a two-stage 4-ary
// fabric (8 switches, 16 processor ports) wired like the simulator's, with a
// source and a sink on every processor port and no NIC model, so the cost
// measured is the switches' own step plus the links they drive.

// source injects its worms round-robin, one flit per cycle as credits
// allow, and rests gap cycles per flit after each worm (gap 0 saturates its
// port). Its pool holds several worms so no worm object is ever back to
// back with itself on a wire.
type source struct {
	link  *engine.Link
	worms []*flit.Worm
	gap   int64
	cur   int
	next  int
	until int64
}

func (s *source) Name() string   { return "source" }
func (s *source) Quiesced() bool { return true }
func (s *source) Step(now int64) {
	if now < s.until || !s.link.CanSend(now) {
		return
	}
	w := s.worms[s.cur]
	s.link.Send(now, flit.Ref{W: w, Idx: s.next})
	if s.next++; s.next == w.Len() {
		s.next = 0
		s.cur = (s.cur + 1) % len(s.worms)
		s.until = now + s.gap*int64(w.Len())
	}
}

// sink consumes one flit per cycle and returns its credit at once.
type sink struct{ link *engine.Link }

func (s *sink) Name() string   { return "sink" }
func (s *sink) Quiesced() bool { return true }
func (s *sink) Step(now int64) {
	if _, ok := s.link.Arrived(now); ok {
		s.link.TakeArrived(now)
		s.link.ReturnCredit(now, 1)
	}
}

// newSwitch builds one switch of the organization under test and returns it
// with a reader of its output-flit counter.
type newSwitch func(node *topology.Switch, router *routing.Router, ports []switches.PortIO,
	rng *engine.RNG, ids *engine.IDGen, sim *engine.Simulation) (engine.Component, func() int64)

func newCB(node *topology.Switch, router *routing.Router, ports []switches.PortIO,
	rng *engine.RNG, ids *engine.IDGen, sim *engine.Simulation) (engine.Component, func() int64) {
	sw := centralbuf.New(centralbuf.DefaultConfig(), node, router, ports, rng, ids, sim)
	return sw, func() int64 { return sw.Stats().FlitsOut }
}

func newIB(node *topology.Switch, router *routing.Router, ports []switches.PortIO,
	rng *engine.RNG, ids *engine.IDGen, sim *engine.Simulation) (engine.Component, func() int64) {
	sw := inputbuf.New(inputbuf.DefaultConfig(), node, router, ports, rng, ids, sim)
	return sw, func() int64 { return sw.Stats().FlitsOut }
}

// fabric is the wired system; flitsOut sums every switch's output flits.
type fabric struct {
	sim      *engine.Simulation
	counters []func() int64
}

func (f *fabric) flitsOut() int64 {
	var n int64
	for _, c := range f.counters {
		n += c()
	}
	return n
}

// buildFabric wires the fabric; traffic(p, net) returns processor p's worm
// pool, injected with the given per-flit gap.
func buildFabric(tb testing.TB, mk newSwitch, credits int, gap int64,
	traffic func(p int, net *topology.Network) []*flit.Worm) *fabric {
	tb.Helper()
	net, err := topology.NewKaryTree(4, 2)
	if err != nil {
		tb.Fatal(err)
	}
	sim := engine.NewSimulation(0)
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
			down := sim.NewLink(fmt.Sprintf("sw%d.p%d-down", sw.ID, pn), 1, credits)
			up := sim.NewLink(fmt.Sprintf("sw%d.p%d-up", sw.ID, pn), 1, credits)
			ports[sw.ID][pn].Out = down
			ports[pt.PeerSwitch][pt.PeerPort].In = down
			ports[pt.PeerSwitch][pt.PeerPort].Out = up
			ports[sw.ID][pn].In = up
		}
	}
	for p := 0; p < net.N; p++ {
		swID, pn := net.ProcAttach(p)
		inj := sim.NewLink(fmt.Sprintf("src%d", p), 1, credits)
		ej := sim.NewLink(fmt.Sprintf("snk%d", p), 1, 8)
		ports[swID][pn].In = inj
		ports[swID][pn].Out = ej
		sim.AddComponent(&source{link: inj, worms: traffic(p, net), gap: gap})
		sim.AddComponent(&sink{link: ej})
	}
	f := &fabric{sim: sim}
	ids := &engine.IDGen{}
	for _, node := range net.Switches {
		sw, out := mk(node, router, ports[node.ID], engine.NewRNG(uint64(node.ID)+1), ids, sim)
		sim.AddComponent(sw)
		var ins []*engine.Link
		for _, pio := range ports[node.ID] {
			ins = append(ins, pio.In)
		}
		sim.DeclareInputs(sw, ins...)
		f.counters = append(f.counters, out)
	}
	return f
}

func worm(net *topology.Network, id uint64, src int, dests []int, payload int) *flit.Worm {
	msg := &flit.Message{ID: id, Src: src, Dests: dests, Class: flit.ClassUnicast,
		HeaderFlits: 1, PayloadFlits: payload}
	if len(dests) > 1 {
		msg.Class = flit.ClassMulticast
	}
	return &flit.Worm{ID: id, Msg: msg, Dests: bitset.FromSlice(net.N, dests), GoingUp: true}
}

// mixedTraffic gives every processor a pool of 8 worms of 17-64 flits: three
// in four unicast, the rest multicast to 2-4 destinations, drawn from a
// fixed seed so every run sees the same load.
func mixedTraffic(p int, net *topology.Network) []*flit.Worm {
	rng := engine.NewRNG(uint64(p) + 100)
	pool := make([]*flit.Worm, 8)
	for k := range pool {
		degree := 1
		if rng.Intn(4) == 0 {
			degree = 2 + rng.Intn(3)
		}
		var dests []int
		for _, d := range rng.Perm(net.N) {
			if d != p && len(dests) < degree {
				dests = append(dests, d)
			}
		}
		pool[k] = worm(net, uint64(p*len(pool)+k+1), p, dests, 16+rng.Intn(48))
	}
	return pool
}

// streamTraffic gives every processor worms far longer than any run, to a
// processor under another first-stage switch: after the paths are set up,
// every cycle moves flits and no switch decodes anything.
func streamTraffic(p int, net *topology.Network) []*flit.Worm {
	dst := (p + 5) % net.N
	pool := make([]*flit.Worm, 2)
	for k := range pool {
		pool[k] = worm(net, uint64(2*p+k+1), p, []int{dst}, 1<<30)
	}
	return pool
}

// benchSwitchStep steps the loaded fabric one cycle per op and reports the
// cost per flit the switches moved. Each source offers about a quarter of
// its port's bandwidth, multicast replication adding to that inside the
// fabric: a loaded network that still has idle ports, as in the sweeps.
func benchSwitchStep(b *testing.B, mk newSwitch, credits int) {
	f := buildFabric(b, mk, credits, 3, mixedTraffic)
	for i := 0; i < 2_000; i++ { // fill the fabric
		f.sim.Step()
	}
	before := f.flitsOut()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.sim.Step()
	}
	b.StopTimer()
	if moved := f.flitsOut() - before; moved > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moved), "ns/flit")
		b.ReportMetric(float64(moved)/float64(b.N), "flits/op")
	}
}

func BenchmarkCBSwitchStep(b *testing.B) {
	benchSwitchStep(b, newCB, centralbuf.DefaultConfig().InFIFOFlits)
}

func BenchmarkIBSwitchStep(b *testing.B) {
	benchSwitchStep(b, newIB, inputbuf.DefaultConfig().BufFlits)
}

// TestSwitchStepSteadyStateAllocs pins the masked per-port step of both
// organizations at zero allocations once worms stream through established
// paths.
func TestSwitchStepSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		name    string
		mk      newSwitch
		credits int
	}{
		{"cb", newCB, centralbuf.DefaultConfig().InFIFOFlits},
		{"ib", newIB, inputbuf.DefaultConfig().BufFlits},
	} {
		f := buildFabric(t, c.mk, c.credits, 0, streamTraffic)
		for i := 0; i < 200; i++ {
			f.sim.Step()
		}
		before := f.flitsOut()
		avg := testing.AllocsPerRun(500, f.sim.Step)
		if avg != 0 {
			t.Errorf("%s: switch step allocates %.2f times per cycle in steady state, want 0", c.name, avg)
		}
		if f.flitsOut() == before {
			t.Errorf("%s: no flits moved during the measured cycles", c.name)
		}
	}
}
