package traffic

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mdworm/internal/engine"
)

func spec() Spec {
	return Spec{
		OpRate:            0.01,
		MulticastFraction: 0.5,
		Degree:            8,
		UniPayloadFlits:   32,
		McastPayloadFlits: 64,
	}
}

func TestValidate(t *testing.T) {
	if err := spec().Validate(64); err != nil {
		t.Fatal(err)
	}
	bad := spec()
	bad.OpRate = 1.5
	if err := bad.Validate(64); err == nil {
		t.Error("rate > 1 accepted")
	}
	bad = spec()
	bad.Degree = 64
	if err := bad.Validate(64); err == nil {
		t.Error("degree = n accepted")
	}
	bad = spec()
	bad.MulticastFraction = -0.1
	if err := bad.Validate(64); err == nil {
		t.Error("negative fraction accepted")
	}
	bad = spec()
	bad.UniPayloadFlits = 0
	if err := bad.Validate(64); err == nil {
		t.Error("zero unicast payload accepted")
	}
	// Pure multicast does not need a unicast payload.
	pure := spec()
	pure.MulticastFraction = 1
	pure.UniPayloadFlits = 0
	if err := pure.Validate(64); err != nil {
		t.Errorf("pure multicast rejected: %v", err)
	}
}

func TestRateForLoad(t *testing.T) {
	s := spec()
	// Delivered payload per op: 0.5*8*64 + 0.5*32 = 272.
	if got := s.MeanDeliveredPayloadFlits(); got != 272 {
		t.Fatalf("mean delivered = %g", got)
	}
	rate := s.RateForLoad(0.272)
	if math.Abs(rate-0.001) > 1e-12 {
		t.Fatalf("rate = %g, want 0.001", rate)
	}
}

// refGenerator is the per-cycle generator that draw-ahead replaces, kept as
// the reference implementation: every node draws one Bernoulli every
// generating cycle, and its request draws when the Bernoulli succeeds.
type refGenerator struct {
	spec Spec
	n    int
	rngs []*engine.RNG
}

func newRefGenerator(spec Spec, n int, seed uint64) *refGenerator {
	root := engine.NewRNG(seed)
	g := &refGenerator{spec: spec, n: n, rngs: make([]*engine.RNG, n)}
	for i := range g.rngs {
		g.rngs[i] = root.Fork(uint64(i))
	}
	return g
}

// Draw returns the operation node generates this cycle, if any.
func (g *refGenerator) Draw(node int) (Request, bool) {
	rng := g.rngs[node]
	if !rng.Bernoulli(g.spec.OpRate) {
		return Request{}, false
	}
	req := Request{Src: node}
	if rng.Bernoulli(g.spec.MulticastFraction) {
		req.Multicast = true
		req.Payload = g.spec.McastPayloadFlits
		req.Dests = rng.Sample(g.n, g.spec.Degree, map[int]bool{node: true})
	} else {
		req.Payload = g.spec.UniPayloadFlits
		if g.spec.HotSpotFraction > 0 && node != g.spec.HotSpotNode &&
			rng.Bernoulli(g.spec.HotSpotFraction) {
			req.Dests = []int{g.spec.HotSpotNode}
		} else {
			req.Dests = []int{pickOther(rng, g.n, node)}
		}
	}
	return req, true
}

// drawAheadMatches runs the reference and the draw-ahead generator side by
// side for horizon cycles, generating in [0, end), and reports the first
// cycle at which they differ in requests or in any stream position. At
// cycle repos the draw-ahead generator is replaced by a fresh one
// repositioned from its reported states, as a checkpoint restore does.
func drawAheadMatches(spec Spec, n int, seed uint64, end, horizon, repos int64) error {
	ref := newRefGenerator(spec, n, seed)
	g, err := NewGenerator(spec, n, seed)
	if err != nil {
		return err
	}
	g.SetWindow(0, end)
	for c := int64(0); c <= horizon; c++ {
		if c == repos {
			states := g.States(c)
			if g, err = NewGenerator(spec, n, seed^0x5eed); err != nil {
				return err
			}
			if err := g.SetStates(states, c); err != nil {
				return err
			}
			g.SetWindow(c, end)
		}
		got := g.States(c)
		for i, r := range ref.rngs {
			if got[i] != r.State() {
				return fmt.Errorf("cycle %d: node %d at stream position %#x, per-cycle drawing at %#x",
					c, i, got[i], r.State())
			}
		}
		if c == horizon {
			return nil
		}
		var want []Request
		if c < end {
			for node := 0; node < n; node++ {
				if r, ok := ref.Draw(node); ok {
					want = append(want, r)
				}
			}
		}
		var have []Request
		if c >= g.Next() {
			have = g.Arrivals(c, nil)
		}
		if !reflect.DeepEqual(want, have) {
			return fmt.Errorf("cycle %d: draw-ahead generated %+v, per-cycle drawing %+v", c, have, want)
		}
	}
	return nil
}

// TestGeneratorMatchesPerCycleDraw compares draw-ahead with the per-cycle
// reference over rates from 1e-4 to 1, multicast fractions 0, 0.1 and 1,
// and hot spot on and off, through a mid-stream reposition and past the end
// of generation.
func TestGeneratorMatchesPerCycleDraw(t *testing.T) {
	const n = 16
	seed := uint64(1)
	for _, rate := range []float64{1e-4, 1e-3, 0.01, 0.1, 0.5, 1} {
		for _, mf := range []float64{0, 0.1, 1} {
			for _, hot := range []float64{0, 0.3} {
				s := Spec{OpRate: rate, MulticastFraction: mf, Degree: 5,
					UniPayloadFlits: 8, McastPayloadFlits: 16, HotSpotFraction: hot, HotSpotNode: 4}
				seed++
				end := int64(4000)
				if rate >= 0.1 {
					end = 600 // dense: every node generates most cycles
				}
				if err := drawAheadMatches(s, n, seed, end, end+300, end/3); err != nil {
					t.Errorf("rate %g mcast %g hot %g: %v", rate, mf, hot, err)
				}
			}
		}
	}
}

// FuzzGeneratorDrawAhead compares draw-ahead with the per-cycle reference
// over random specs, system sizes, windows and reposition cycles.
func FuzzGeneratorDrawAhead(f *testing.F) {
	f.Add(uint64(1), uint8(128), uint8(0), false, uint8(14), uint16(1500), uint16(700))
	f.Add(uint64(2), uint8(0), uint8(1), true, uint8(62), uint16(300), uint16(299))
	f.Add(uint64(3), uint8(255), uint8(2), false, uint8(0), uint16(3000), uint16(0))
	f.Add(uint64(4), uint8(40), uint8(3), true, uint8(5), uint16(2000), uint16(2500))
	f.Fuzz(func(t *testing.T, seed uint64, rateSel, mcastSel uint8, hot bool, nSel uint8, endSel, reposSel uint16) {
		n := 2 + int(nSel)%63
		s := Spec{
			// 1 down to 1e-4, log-uniform.
			OpRate:            math.Pow(10, -4*float64(rateSel)/255),
			MulticastFraction: []float64{0, 0.1, 1, float64(mcastSel) / 255}[mcastSel%4],
			Degree:            1 + int(seed%uint64(n-1)),
			UniPayloadFlits:   4,
			McastPayloadFlits: 8,
		}
		if hot {
			s.HotSpotFraction, s.HotSpotNode = 0.5, int(seed>>8)%n
		}
		end := int64(endSel % 4000)
		if s.OpRate > 0.05 {
			end %= 400 // keep dense runs cheap
		}
		horizon := end + 200
		repos := int64(reposSel) % (horizon + 1)
		if err := drawAheadMatches(s, n, seed, end, horizon, repos); err != nil {
			t.Fatal(err)
		}
	})
}

// cycleArrivals drives g over [0, cycles) as the simulator does and calls
// fn with every cycle's requests.
func cycleArrivals(t *testing.T, g *Generator, cycles int64, fn func(cycle int64, reqs []Request)) {
	t.Helper()
	g.SetWindow(0, cycles)
	for c := int64(0); c < cycles; c++ {
		fn(c, g.Arrivals(c, nil))
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1, err := NewGenerator(spec(), 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(spec(), 64, 7)
	var all2 [][]Request
	cycleArrivals(t, g2, 200, func(_ int64, reqs []Request) { all2 = append(all2, reqs) })
	cycleArrivals(t, g1, 200, func(cycle int64, reqs []Request) {
		other := all2[cycle]
		if len(reqs) != len(other) {
			t.Fatal("same seed diverged in arrivals")
		}
		for k, r1 := range reqs {
			r2 := other[k]
			if r1.Src != r2.Src || r1.Multicast != r2.Multicast || len(r1.Dests) != len(r2.Dests) {
				t.Fatal("same seed diverged in requests")
			}
			for i := range r1.Dests {
				if r1.Dests[i] != r2.Dests[i] {
					t.Fatal("same seed diverged in destinations")
				}
			}
		}
	})
}

func TestGeneratorRequestValidity(t *testing.T) {
	g, err := NewGenerator(spec(), 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	nMcast, nUni, total := 0, 0, 0
	cycleArrivals(t, g, 5000, func(_ int64, reqs []Request) {
		for k, req := range reqs {
			node := req.Src
			total++
			if node < 0 || node >= 64 || (k > 0 && node <= reqs[k-1].Src) {
				t.Fatal("wrong source")
			}
			seen := map[int]bool{}
			for _, d := range req.Dests {
				if d < 0 || d >= 64 || d == node || seen[d] {
					t.Fatalf("bad destination set %v for node %d", req.Dests, node)
				}
				seen[d] = true
			}
			if req.Multicast {
				nMcast++
				if len(req.Dests) != 8 || req.Payload != 64 {
					t.Fatalf("bad multicast request %+v", req)
				}
			} else {
				nUni++
				if len(req.Dests) != 1 || req.Payload != 32 {
					t.Fatalf("bad unicast request %+v", req)
				}
			}
		}
	})
	// Rate: expect 64 * 5000 * 0.01 = 3200 ops, within 10%.
	if total < 2900 || total > 3500 {
		t.Fatalf("generated %d ops, expected about 3200", total)
	}
	// Mix: about half multicast.
	frac := float64(nMcast) / float64(total)
	if frac < 0.42 || frac > 0.58 {
		t.Fatalf("multicast fraction %.2f, expected about 0.5", frac)
	}
}

func TestGeneratorNodeIndependence(t *testing.T) {
	// Repositioning every other node's stream, and reopening the window,
	// each cycle must not change a node's stream.
	g1, err := NewGenerator(spec(), 16, 11)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(spec(), 16, 11)
	var a, b []Request
	cycleArrivals(t, g1, 500, func(_ int64, reqs []Request) {
		for _, r := range reqs {
			if r.Src == 3 {
				a = append(a, r)
			}
		}
	})
	for cycle := int64(0); cycle < 500; cycle++ {
		states := g2.States(cycle)
		for node := range states {
			if node != 3 {
				states[node] = states[node]*31 + uint64(cycle)
			}
		}
		if err := g2.SetStates(states, cycle); err != nil {
			t.Fatal(err)
		}
		g2.SetWindow(cycle, 500)
		for _, r := range g2.Arrivals(cycle, nil) {
			if r.Src == 3 {
				b = append(b, r)
			}
		}
	}
	if len(a) != len(b) {
		t.Fatalf("node 3 stream length differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Multicast != b[i].Multicast || a[i].Dests[0] != b[i].Dests[0] {
			t.Fatal("node 3 stream content differs under reordering")
		}
	}
}

func TestPickOtherNeverSelf(t *testing.T) {
	g, _ := NewGenerator(Spec{OpRate: 1, MulticastFraction: 0, UniPayloadFlits: 1}, 4, 5)
	cycleArrivals(t, g, 1000, func(_ int64, reqs []Request) {
		for _, req := range reqs {
			if req.Dests[0] == req.Src {
				t.Fatal("unicast to self")
			}
		}
	})
}

// TestArrivalsPanicsOnSkippedCycle checks that a caller skipping a cycle
// with an arrival is refused rather than silently losing the operation.
func TestArrivalsPanicsOnSkippedCycle(t *testing.T) {
	g, _ := NewGenerator(Spec{OpRate: 1, UniPayloadFlits: 1}, 4, 5)
	g.SetWindow(0, 10)
	g.Arrivals(0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("skipping cycle 1 did not panic")
		}
	}()
	g.Arrivals(2, nil)
}

func TestHotSpotTraffic(t *testing.T) {
	s := Spec{
		OpRate:          0.05,
		UniPayloadFlits: 16,
		HotSpotFraction: 0.5,
		HotSpotNode:     7,
	}
	g, err := NewGenerator(s, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	hot, total := 0, 0
	cycleArrivals(t, g, 2000, func(_ int64, reqs []Request) {
		for _, req := range reqs {
			total++
			if req.Dests[0] == 7 {
				hot++
			}
		}
	})
	frac := float64(hot) / float64(total)
	// Half the traffic targets the hot node plus the uniform share.
	if frac < 0.40 || frac > 0.62 {
		t.Fatalf("hot-spot fraction %.2f, expected about 0.5", frac)
	}
}

func TestHotSpotValidation(t *testing.T) {
	bad := Spec{OpRate: 0.1, UniPayloadFlits: 8, HotSpotFraction: 1.5}
	if err := bad.Validate(16); err == nil {
		t.Error("fraction > 1 accepted")
	}
	bad = Spec{OpRate: 0.1, UniPayloadFlits: 8, HotSpotFraction: 0.5, HotSpotNode: 99}
	if err := bad.Validate(16); err == nil {
		t.Error("out-of-range hot node accepted")
	}
}

// BenchmarkGenerate measures the generator as the load phase drives it:
// ns per node-cycle over a 64-node window at an e1 rate (multiple
// multicast, load 0.3) and at e5's fixed rate.
func BenchmarkGenerate(b *testing.B) {
	mm := Spec{MulticastFraction: 1, Degree: 8, McastPayloadFlits: 64}
	for _, bc := range []struct {
		name string
		rate float64
	}{
		{"e1", mm.RateForLoad(0.3)},
		{"e5", 0.6 / (63.0 * 64.0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const n, cycles = 64, 25_000
			s := mm
			s.OpRate = bc.rate
			var reqs []Request
			for i := 0; i < b.N; i++ {
				g, err := NewGenerator(s, n, uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				g.SetWindow(0, cycles)
				for c := int64(0); c < cycles; c++ {
					if c >= g.Next() {
						reqs = g.Arrivals(c, reqs[:0])
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*cycles), "ns/node-cycle")
		})
	}
}
