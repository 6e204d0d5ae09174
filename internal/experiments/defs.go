package experiments

import (
	"fmt"

	"mdworm/internal/analytic"
	"mdworm/internal/core"
)

// Load sweeps, in delivered payload flits per node per cycle (a multicast
// delivers one copy per destination). Ejection links bound delivered demand
// near 1.0; the schemes differ in how early contention, host overheads, and
// multi-phase traffic make them fall off that ceiling — which is the
// paper's point.
var fullLoads = []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70}
var quickLoads = []float64{0.10, 0.30, 0.50}

func loads(o Options) []float64 {
	if o.Quick {
		return quickLoads
	}
	return fullLoads
}

// sweepLoads runs the three principal contenders over a load sweep with the
// given traffic shape mutator.
func sweepLoads(o Options, tag string, shape func(cfg *core.Config), contenders []Contender) []Series {
	var out []Series
	for _, c := range contenders {
		s := Series{Name: c.Name}
		for _, load := range loads(o) {
			cfg := baseConfig(o)
			shape(&cfg)
			c.Apply(&cfg)
			cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(load)
			// The load coordinate keeps tags unique within a series — the
			// cluster stream merge keys its ordering on the tag.
			s.Points = append(s.Points, runPoint(cfg, load, fmt.Sprintf("%s/%s/load=%.2f", tag, c.Name, load)))
		}
		out = append(out, s)
	}
	return out
}

func multipleMulticastShape(cfg *core.Config) {
	cfg.Traffic.MulticastFraction = 1.0
	cfg.Traffic.Degree = 8
	cfg.Traffic.McastPayloadFlits = 64
}

// E1MultipleMulticastLatency reproduces the multiple-multicast latency
// figure: every node issues 8-destination multicasts; multicast last-arrival
// latency versus offered load for CB-HW, IB-HW, and SW-UMIN.
func E1MultipleMulticastLatency(o Options) (*Table, error) {
	return &Table{
		ID:      "E1",
		Title:   "Multiple multicast: latency vs offered load (N=64, d=8, L=64)",
		XLabel:  "load",
		Metrics: []Metric{MetricMcastLatency, MetricMcastP95, MetricMsgsPerOp},
		Series:  sweepLoads(o, "e1", multipleMulticastShape, []Contender{CBHW, IBHW, SWUMIN}),
		Notes:   "* marks saturated points (latency dominated by source queueing)",
	}, nil
}

// E2MultipleMulticastThroughput reproduces the delivered-throughput figure
// for the same workload.
func E2MultipleMulticastThroughput(o Options) (*Table, error) {
	return &Table{
		ID:      "E2",
		Title:   "Multiple multicast: delivered payload throughput vs offered load (N=64, d=8, L=64)",
		XLabel:  "load",
		Metrics: []Metric{MetricThroughput},
		Series:  sweepLoads(o, "e2", multipleMulticastShape, []Contender{CBHW, IBHW, SWUMIN}),
		Notes:   "delivered payload flits per node per cycle at destinations (multicast counts each copy)",
	}, nil
}

func bimodalShape(cfg *core.Config) {
	cfg.Traffic.MulticastFraction = 0.1
	cfg.Traffic.Degree = 8
	cfg.Traffic.UniPayloadFlits = 32
	cfg.Traffic.McastPayloadFlits = 64
}

// E3BimodalUnicastLatency reproduces the bimodal-traffic figure for the
// background unicast latency: how much does each multicast implementation
// perturb unrelated unicast traffic?
func E3BimodalUnicastLatency(o Options) (*Table, error) {
	return &Table{
		ID:      "E3",
		Title:   "Bimodal traffic: background unicast latency vs offered load (10% multicast d=8)",
		XLabel:  "load",
		Metrics: []Metric{MetricUniLatency, MetricThroughput},
		Series:  sweepLoads(o, "e3", bimodalShape, []Contender{CBHW, IBHW, SWUMIN}),
		Notes:   "the paper's claim: hardware multicast hurts background unicasts far less than software multicast",
	}, nil
}

// E4BimodalMulticastLatency reproduces the bimodal-traffic figure for the
// multicast component's latency.
func E4BimodalMulticastLatency(o Options) (*Table, error) {
	return &Table{
		ID:      "E4",
		Title:   "Bimodal traffic: multicast latency vs offered load (10% multicast d=8)",
		XLabel:  "load",
		Metrics: []Metric{MetricMcastLatency, MetricMcastP95},
		Series:  sweepLoads(o, "e4", bimodalShape, []Contender{CBHW, IBHW, SWUMIN}),
	}, nil
}

// E5Degree reproduces the varying-degree figure: multicast latency versus
// the number of destinations at a fixed per-node operation rate (so the
// offered *work* grows with the degree, and the schemes differ in how much
// of it they can absorb).
func E5Degree(o Options) (*Table, error) {
	degrees := []int{2, 4, 8, 16, 32, 63}
	if o.Quick {
		degrees = []int{4, 16, 63}
	}
	// Fixed op rate chosen so d=63 corresponds to ~0.6 delivered load.
	const opRate = 0.6 / (63.0 * 64.0)
	var series []Series
	for _, c := range []Contender{CBHW, IBHW, SWUMIN} {
		s := Series{Name: c.Name}
		for _, d := range degrees {
			cfg := baseConfig(o)
			multipleMulticastShape(&cfg)
			cfg.Traffic.Degree = d
			c.Apply(&cfg)
			cfg.Traffic.OpRate = opRate
			s.Points = append(s.Points, runPoint(cfg, float64(d), fmt.Sprintf("e5/%s/d%d", c.Name, d)))
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "E5",
		Title:   fmt.Sprintf("Varying multicast degree at %.5f multicasts/node/cycle (N=64, L=64)", opRate),
		XLabel:  "degree",
		Metrics: []Metric{MetricMcastLatency, MetricMsgsPerOp},
		Series:  series,
	}, nil
}

// E6MessageLength reproduces the varying-message-length figure.
func E6MessageLength(o Options) (*Table, error) {
	lengths := []int{16, 32, 64, 128, 256}
	if o.Quick {
		lengths = []int{32, 128}
	}
	const load = 0.40
	var series []Series
	for _, c := range []Contender{CBHW, IBHW, SWUMIN} {
		s := Series{Name: c.Name}
		for _, l := range lengths {
			cfg := baseConfig(o)
			multipleMulticastShape(&cfg)
			cfg.Traffic.McastPayloadFlits = l
			c.Apply(&cfg)
			cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(load)
			s.Points = append(s.Points, runPoint(cfg, float64(l), fmt.Sprintf("e6/%s/L%d", c.Name, l)))
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "E6",
		Title:   fmt.Sprintf("Varying message length at load %.2f (N=64, d=8)", load),
		XLabel:  "flits",
		Metrics: []Metric{MetricMcastLatency, MetricMcastP95},
		Series:  series,
	}, nil
}

// E7SystemSize reproduces the system-size figure: 16, 64, and 256 nodes at
// the same per-node load. Header sizes grow with N for the bit-string
// encoding (1, 4, and 16 flits), which the model charges faithfully.
func E7SystemSize(o Options) (*Table, error) {
	stages := []int{2, 3, 4}
	if o.Quick {
		stages = []int{2, 3}
	}
	// Chosen below the 256-node knee: the 16-flit bit-string header alone
	// adds 25% wire overhead there.
	const load = 0.15
	var series []Series
	for _, c := range []Contender{CBHW, IBHW, SWUMIN} {
		s := Series{Name: c.Name}
		for _, st := range stages {
			cfg := baseConfig(o)
			multipleMulticastShape(&cfg)
			cfg.Stages = st
			c.Apply(&cfg)
			cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(load)
			n := cfg.N()
			s.Points = append(s.Points, runPoint(cfg, float64(n), fmt.Sprintf("e7/%s/N%d", c.Name, n)))
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "E7",
		Title:   fmt.Sprintf("System size scaling at load %.2f (d=8, L=64)", load),
		XLabel:  "nodes",
		Metrics: []Metric{MetricMcastLatency, MetricMcastP95},
		Series:  series,
	}, nil
}

// E8SingleMulticast reproduces the unloaded single-multicast latency table:
// one multicast on an idle network, degree swept, for all four schemes. The
// companion work [32] reports up to a 4x latency reduction of hardware over
// software multicast; the shape should match.
func E8SingleMulticast(o Options) (*Table, error) {
	degrees := []int{1, 2, 4, 8, 16, 32, 63}
	if o.Quick {
		degrees = []int{2, 8, 63}
	}
	var series []Series
	for _, c := range []Contender{CBHW, IBHW, SWUMIN, SWSEP} {
		s := Series{Name: c.Name}
		for _, d := range degrees {
			cfg := baseConfig(o)
			cfg.Traffic.OpRate = 0 // idle network
			cfg.Traffic.Degree = d
			c.Apply(&cfg)
			p := singleOpPoint(cfg, d, fmt.Sprintf("e8/%s/d%d", c.Name, d))
			s.Points = append(s.Points, p)
		}
		series = append(series, s)
	}
	// Closed-form reference curves from the analytic model.
	m := analytic.FromConfig(baseConfig(o))
	for _, ms := range []struct {
		name string
		f    func(payload, d int) float64
	}{
		{"model-hw", m.HardwareMulticast},
		{"model-sw-umin", m.SoftwareBinomial},
		{"model-sw-sep", m.SoftwareSeparate},
	} {
		s := Series{Name: ms.name}
		for _, d := range degrees {
			var col pointCollector
			col.add(ms.f(64, d), 0)
			s.Points = append(s.Points, Point{X: float64(d), Results: col.results(64)})
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "E8",
		Title:   "Single multicast latency on an idle network (N=64, L=64)",
		XLabel:  "degree",
		Metrics: []Metric{MetricMcastLatency, MetricMsgsPerOp},
		Series:  series,
		Notes:   "latency of one op, averaged over 16 random source/destination draws",
	}, nil
}

// singleOpPoint schedules one idle-network multicast measurement (averaged
// over a few deterministic draws) as a pending point.
func singleOpPoint(cfg core.Config, degree int, tag string) Point {
	return Point{X: float64(degree), Tag: tag, pending: &pendingPoint{harness: func(o Options) Point {
		const draws = 16
		sim, err := core.New(cfg)
		if err != nil {
			o.point(PointEvent{Tag: tag, X: float64(degree), Err: err})
			return Point{X: float64(degree), Err: err}
		}
		// Reuse the simulator across draws; the network is idle between ops.
		rng := newDrawRNG(cfg.Seed)
		var col pointCollector
		for i := 0; i < draws; i++ {
			src := rng.Intn(sim.Net().N)
			dests := rng.Sample(sim.Net().N, degree, map[int]bool{src: true})
			lat, op, err := sim.RunOp(src, dests, true, cfg.Traffic.McastPayloadFlits, 2_000_000)
			if err != nil {
				o.point(PointEvent{Tag: tag, X: float64(degree), Cycles: sim.Now(), Err: err})
				return Point{X: float64(degree), Err: err, cycles: sim.Now()}
			}
			col.add(float64(lat), float64(op.MessagesSent))
		}
		res := col.results(sim.Net().N)
		o.progress("  %-28s d=%-6d lat=%.1f msgs=%.1f", tag, degree, res.Multicast.LastArrival.Mean, res.Multicast.MessagesPerOp)
		o.point(PointEvent{Tag: tag, X: float64(degree),
			McastLatency: res.Multicast.LastArrival.Mean, Cycles: sim.Now()})
		return Point{X: float64(degree), Results: res, cycles: sim.Now()}
	}}}
}
