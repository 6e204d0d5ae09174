package experiments

import (
	"fmt"

	"mdworm/internal/collective"
	"mdworm/internal/core"
	"mdworm/internal/stats"
)

// The collective experiments c1..c6 evaluate the collectives subsystem end to
// end: phase-structured barrier, broadcast, all-reduce, scatter, and gather
// schedules driven over the same three modes the paper compares for raw
// multicast — CB-HW and IB-HW multidestination worms versus the software
// unicast-tree baseline. The latency metric is the collective's own
// last-arrival time per repetition (driver-measured, tiled exactly by phase).

// Collective metrics. Points without collective results (they never arise in
// c1..c6, but Metric extractors must total) read as zero.
var (
	MetricCollLatency = Metric{"coll_lat", func(r stats.Results) float64 {
		if r.Collective == nil {
			return 0
		}
		return r.Collective.LastArrival.Mean
	}}
	MetricCollP95 = Metric{"coll_p95", func(r stats.Results) float64 {
		if r.Collective == nil {
			return 0
		}
		return r.Collective.LastArrival.P95
	}}
	MetricCollSkew = Metric{"coll_skew", func(r stats.Results) float64 {
		if r.Collective == nil {
			return 0
		}
		return r.Collective.Skew.Mean
	}}
)

// collReps returns the repetition count per point, shrunk in quick mode.
func collReps(o Options) int {
	if o.Quick {
		return 10
	}
	return 40
}

// collConfig returns the baseline for a collective point: an otherwise idle
// fabric whose only traffic source is the collective driver. The measurement
// window is irrelevant to the collective collector (it samples every rep);
// the drain budget must outlast the full schedule.
func collConfig(o Options, kind collective.Kind) core.Config {
	cfg := baseConfig(o)
	cfg.Traffic.OpRate = 0
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 1_000
	cfg.Collective = collective.Spec{
		Kind:         kind,
		PayloadFlits: 64,
		Reps:         collReps(o),
		GapCycles:    100,
	}
	return cfg
}

// C1BarrierSize sweeps barrier last-arrival latency over system size for the
// three modes. A barrier moves single-flit tokens, so the hardware release
// worm's advantage is pure phase elimination: one multidestination worm
// replaces the log-P unicast release tree.
func C1BarrierSize(o Options) (*Table, error) {
	stages := []int{2, 3, 4}
	if o.Quick {
		stages = []int{2, 3}
	}
	var series []Series
	for _, c := range []Contender{CBHW, IBHW, SWUMIN} {
		s := Series{Name: c.Name}
		for _, st := range stages {
			cfg := collConfig(o, collective.Barrier)
			cfg.Stages = st
			c.Apply(&cfg)
			n := cfg.N()
			s.Points = append(s.Points, runPoint(cfg, float64(n), fmt.Sprintf("c1/%s/N%d", c.Name, n)))
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "C1",
		Title:   "Barrier: last-arrival latency vs system size",
		XLabel:  "nodes",
		Metrics: []Metric{MetricCollLatency, MetricCollP95},
		Series:  series,
		Notes:   "combine tree up, then multidestination release worm (hw) or unicast release tree (sw)",
		strict:  true,
	}, nil
}

// C2BroadcastLength sweeps broadcast latency over payload length. The
// software tree pays log-P phases of host overhead plus transmission per
// phase; the hardware worm pays them once.
func C2BroadcastLength(o Options) (*Table, error) {
	lengths := []int{16, 64, 256}
	if o.Quick {
		lengths = []int{16, 128}
	}
	var series []Series
	for _, c := range []Contender{CBHW, IBHW, SWUMIN} {
		s := Series{Name: c.Name}
		for _, l := range lengths {
			cfg := collConfig(o, collective.Broadcast)
			cfg.Collective.PayloadFlits = l
			c.Apply(&cfg)
			s.Points = append(s.Points, runPoint(cfg, float64(l), fmt.Sprintf("c2/%s/L%d", c.Name, l)))
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "C2",
		Title:   "Broadcast: last-arrival latency vs payload length (N=64)",
		XLabel:  "flits",
		Metrics: []Metric{MetricCollLatency, MetricCollP95},
		Series:  series,
		strict:  true,
	}, nil
}

// C3AllReduce compares the two all-reduce compositions over system size:
// binomial combine tree plus broadcast, against the direct-gather variant
// whose first phase converges P-1 unicasts on the root's ejection link.
func C3AllReduce(o Options) (*Table, error) {
	stages := []int{2, 3, 4}
	if o.Quick {
		stages = []int{2, 3}
	}
	variants := []struct {
		name string
		kind collective.Kind
		con  Contender
	}{
		{"tree-hw", collective.AllReduce, CBHW},
		{"tree-sw", collective.AllReduce, SWUMIN},
		{"gather-hw", collective.AllReduceGather, CBHW},
	}
	var series []Series
	for _, v := range variants {
		s := Series{Name: v.name}
		for _, st := range stages {
			cfg := collConfig(o, v.kind)
			cfg.Stages = st
			cfg.Collective.PayloadFlits = 16
			v.con.Apply(&cfg)
			n := cfg.N()
			s.Points = append(s.Points, runPoint(cfg, float64(n), fmt.Sprintf("c3/%s/N%d", v.name, n)))
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "C3",
		Title:   "All-reduce: combine tree vs direct gather, by system size (L=16)",
		XLabel:  "nodes",
		Metrics: []Metric{MetricCollLatency, MetricCollP95},
		Series:  series,
		Notes:   "direct gather serializes P-1 arrivals on the root ejection link; the tree amortizes them over log-P phases",
		strict:  true,
	}, nil
}

// C4ScatterGather sweeps the personalized collectives over system size.
// Scatter is where the software tree can win: the root hands each child one
// combined sub-payload (log-P sends), while the hardware mode issues P-1
// separate root unicasts serialized by the send overhead.
func C4ScatterGather(o Options) (*Table, error) {
	stages := []int{2, 3, 4}
	if o.Quick {
		stages = []int{2, 3}
	}
	variants := []struct {
		name string
		kind collective.Kind
		con  Contender
	}{
		{"scatter-hw", collective.Scatter, CBHW},
		{"scatter-sw", collective.Scatter, SWUMIN},
		{"gather-hw", collective.Gather, CBHW},
		{"gather-sw", collective.Gather, SWUMIN},
	}
	var series []Series
	for _, v := range variants {
		s := Series{Name: v.name}
		for _, st := range stages {
			cfg := collConfig(o, v.kind)
			cfg.Stages = st
			cfg.Collective.PayloadFlits = 16
			v.con.Apply(&cfg)
			n := cfg.N()
			s.Points = append(s.Points, runPoint(cfg, float64(n), fmt.Sprintf("c4/%s/N%d", v.name, n)))
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "C4",
		Title:   "Scatter/gather: last-arrival latency vs system size (L=16 per node)",
		XLabel:  "nodes",
		Metrics: []Metric{MetricCollLatency, MetricCollP95},
		Series:  series,
		Notes:   "per-node payload is fixed, so total bytes grow with P; sw trees forward combined sub-payloads",
		strict:  true,
	}, nil
}

// C5Skew sweeps process arrival skew for the barrier: once skew dwarfs the
// network time, the last-arrival latency of every mode collapses onto the
// skew itself and the hardware advantage vanishes — the paper's argument for
// judging collectives by last arrival rather than network transit.
func C5Skew(o Options) (*Table, error) {
	skews := []int64{0, 64, 256, 1024}
	if o.Quick {
		skews = []int64{0, 256}
	}
	var series []Series
	for _, c := range []Contender{CBHW, SWUMIN} {
		s := Series{Name: c.Name}
		for _, sk := range skews {
			cfg := collConfig(o, collective.Barrier)
			cfg.Collective.SkewCycles = sk
			cfg.Collective.GapCycles = 100 + sk
			c.Apply(&cfg)
			s.Points = append(s.Points, runPoint(cfg, float64(sk), fmt.Sprintf("c5/%s/skew=%d", c.Name, sk)))
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "C5",
		Title:   "Barrier under process skew (N=64)",
		XLabel:  "skew_cycles",
		Metrics: []Metric{MetricCollLatency, MetricCollSkew},
		Series:  series,
		Notes:   "skew draws are deterministic per (rep, node); coll_skew is the final-phase arrival spread",
		strict:  true,
	}, nil
}

// C6Background runs broadcasts against rising background unicast load: the
// software tree both suffers more from contention and injects log-P times
// the messages into it.
func C6Background(o Options) (*Table, error) {
	bg := []float64{0, 0.10, 0.20, 0.40}
	if o.Quick {
		bg = []float64{0, 0.20}
	}
	var series []Series
	for _, c := range []Contender{CBHW, IBHW, SWUMIN} {
		s := Series{Name: c.Name}
		for _, load := range bg {
			cfg := collConfig(o, collective.Broadcast)
			cfg.Traffic.MulticastFraction = 0
			cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(load)
			cfg.Collective.GapCycles = 400
			c.Apply(&cfg)
			s.Points = append(s.Points, runPoint(cfg, load, fmt.Sprintf("c6/%s/load=%.2f", c.Name, load)))
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "C6",
		Title:   "Broadcast against background unicast load (N=64, L=64)",
		XLabel:  "bg_load",
		Metrics: []Metric{MetricCollLatency, MetricCollP95, MetricUniLatency},
		Series:  series,
		Notes:   "uni_lat shows the reverse interference: what the collective does to the background traffic",
		strict:  true,
	}, nil
}
