package experiments

import (
	"errors"
	"fmt"

	"mdworm/internal/core"
	"mdworm/internal/engine"
	"mdworm/internal/routing"
	"mdworm/internal/topology"
)

// A1CentralBufferSize sweeps the central buffer capacity under multiple
// multicast pressure: the shared buffer is the CB architecture's key
// resource, and the paper's design rests on it being generously sized.
func A1CentralBufferSize(o Options) (*Table, error) {
	chunkCounts := []int{32, 64, 128, 256}
	if o.Quick {
		chunkCounts = []int{32, 128}
	}
	const load = 0.50
	s := Series{Name: CBHW.Name}
	for _, chunks := range chunkCounts {
		cfg := baseConfig(o)
		multipleMulticastShape(&cfg)
		CBHW.Apply(&cfg)
		cfg.CB.Chunks = chunks
		cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(load)
		s.Points = append(s.Points, runPoint(cfg, float64(chunks), fmt.Sprintf("a1/c%d", chunks)))
	}
	return &Table{
		ID:      "A1",
		Title:   fmt.Sprintf("Central buffer size at load %.2f (multiple multicast, d=8)", load),
		XLabel:  "chunks",
		Metrics: []Metric{MetricMcastLatency, MetricMcastP95, MetricThroughput},
		Series:  []Series{s},
		Notes:   "chunk counts below 2x the packet size are raised automatically to keep the deadlock-freedom guarantee",
		strict:  true,
	}, nil
}

// A2ChunkSize sweeps the chunk granularity at a fixed total capacity in
// flits: finer chunks waste less space on partial fills but cost more
// bookkeeping; coarser chunks round every packet up.
func A2ChunkSize(o Options) (*Table, error) {
	chunkFlits := []int{4, 8, 16}
	if o.Quick {
		chunkFlits = []int{4, 16}
	}
	const load, totalFlits = 0.50, 1024
	s := Series{Name: CBHW.Name}
	for _, cf := range chunkFlits {
		cfg := baseConfig(o)
		multipleMulticastShape(&cfg)
		CBHW.Apply(&cfg)
		cfg.CB.ChunkFlits = cf
		cfg.CB.Chunks = totalFlits / cf
		cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(load)
		s.Points = append(s.Points, runPoint(cfg, float64(cf), fmt.Sprintf("a2/cf%d", cf)))
	}
	return &Table{
		ID:      "A2",
		Title:   fmt.Sprintf("Chunk granularity at %d buffer flits, load %.2f", totalFlits, load),
		XLabel:  "chunk_flits",
		Metrics: []Metric{MetricMcastLatency, MetricThroughput},
		Series:  []Series{s},
		strict:  true,
	}, nil
}

// A3ReplicateOnUpPath compares branching downward on the way to the LCA
// stage against ascending undivided and replicating only on the way down.
func A3ReplicateOnUpPath(o Options) (*Table, error) {
	const load = 0.40
	var series []Series
	for _, rep := range []bool{true, false} {
		name := "replicate-up"
		if !rep {
			name = "lca-only"
		}
		s := Series{Name: name}
		for _, d := range []int{4, 16, 63} {
			cfg := baseConfig(o)
			multipleMulticastShape(&cfg)
			CBHW.Apply(&cfg)
			cfg.ReplicateOnUpPath = rep
			cfg.Traffic.Degree = d
			cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(load)
			s.Points = append(s.Points, runPoint(cfg, float64(d), fmt.Sprintf("a3/%s/d%d", name, d)))
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "A3",
		Title:   fmt.Sprintf("Replicate on the up path vs at the LCA only, load %.2f", load),
		XLabel:  "degree",
		Metrics: []Metric{MetricMcastLatency, MetricThroughput},
		Series:  series,
	}, nil
}

// A4UpPortPolicy compares the up-port selection policies under bimodal load.
func A4UpPortPolicy(o Options) (*Table, error) {
	const load = 0.35
	var series []Series
	for _, pol := range []routing.UpPolicy{routing.UpHash, routing.UpRandom, routing.UpAdaptive} {
		s := Series{Name: pol.String()}
		for _, arch := range []Contender{CBHW, IBHW} {
			cfg := baseConfig(o)
			bimodalShape(&cfg)
			arch.Apply(&cfg)
			cfg.UpPolicy = pol
			cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(load)
			x := float64(0)
			if arch.Arch == core.InputBuffer {
				x = 1
			}
			s.Points = append(s.Points, runPoint(cfg, x, fmt.Sprintf("a4/%s/%s", pol, arch.Name)))
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "A4",
		Title:   fmt.Sprintf("Up-port selection policy under bimodal traffic, load %.2f", load),
		XLabel:  "arch(0=cb,1=ib)",
		Metrics: []Metric{MetricUniLatency, MetricMcastLatency, MetricThroughput},
		Series:  series,
	}, nil
}

// A5Encoding compares bit-string against multiport encoding: single-phase
// arbitrary sets with wide headers versus compact headers that may need
// several worms.
func A5Encoding(o Options) (*Table, error) {
	degrees := []int{2, 4, 8, 16, 32, 63}
	if o.Quick {
		degrees = []int{4, 16, 63}
	}
	var series []Series
	for _, c := range []Contender{CBHW, CBMP} {
		s := Series{Name: c.Name}
		for _, d := range degrees {
			cfg := baseConfig(o)
			cfg.Traffic.OpRate = 0
			cfg.Traffic.Degree = d
			c.Apply(&cfg)
			s.Points = append(s.Points, singleOpPoint(cfg, d, fmt.Sprintf("a5/%s/d%d", c.Name, d)))
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "A5",
		Title:   "Header encoding: bit-string vs multiport, single multicast on idle network (N=64)",
		XLabel:  "degree",
		Metrics: []Metric{MetricMcastLatency, MetricMsgsPerOp},
		Series:  series,
		Notes:   "msgs_per_op for multiport is the number of product-set worms needed",
	}, nil
}

// A6SoftwareOverhead sweeps the software send/receive overhead, the knob
// the software scheme's competitiveness depends on.
func A6SoftwareOverhead(o Options) (*Table, error) {
	overheads := []int{16, 64, 256}
	var series []Series
	for _, c := range []Contender{CBHW, SWUMIN} {
		s := Series{Name: c.Name}
		for _, ov := range overheads {
			cfg := baseConfig(o)
			cfg.Traffic.OpRate = 0
			cfg.Traffic.Degree = 8
			cfg.NIC.SendOverhead = ov
			cfg.NIC.RecvOverhead = ov
			c.Apply(&cfg)
			s.Points = append(s.Points, singleOpPoint(cfg, 8, fmt.Sprintf("a6/%s/ov%d", c.Name, ov)))
			s.Points[len(s.Points)-1].X = float64(ov)
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "A6",
		Title:   "Sensitivity to software overhead (single multicast, d=8, idle network)",
		XLabel:  "overhead",
		Metrics: []Metric{MetricMcastLatency, MetricMsgsPerOp},
		Series:  series,
	}, nil
}

// A10SyncReplication compares asynchronous replication against the
// lock-step alternative, on the input-buffer switch under multiple
// multicast. The paper states that synchronous replication "is susceptible
// to deadlock" without an avoidance arbiter (its reason for adopting
// asynchronous replication); this experiment demonstrates it empirically —
// the sync rows deadlock, caught by the watchdog and reported as such.
func A10SyncReplication(o Options) (*Table, error) {
	loads := []float64{0.10, 0.30, 0.50}
	if o.Quick {
		loads = []float64{0.10, 0.40}
	}
	var series []Series
	for _, sync := range []bool{false, true} {
		name := "async"
		if sync {
			name = "sync"
		}
		s := Series{Name: name}
		for _, load := range loads {
			cfg := baseConfig(o)
			multipleMulticastShape(&cfg)
			IBHW.Apply(&cfg)
			cfg.IB.SyncReplication = sync
			if sync {
				cfg.WatchdogLimit = 20_000 // expected to wedge; fail fast
			}
			cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(load)
			p := runPoint(cfg, load, fmt.Sprintf("a10/%s/l%.2f", name, load))
			// Rewrite the expected deadlock error after the point resolves.
			p.pending.relabel = func(err error) error {
				var de *engine.DeadlockError
				if errors.As(err, &de) {
					return fmt.Errorf("DEADLOCK at cycle %d (the paper's predicted failure of synchronous replication)", de.Cycle)
				}
				return err
			}
			s.Points = append(s.Points, p)
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "A10",
		Title:   "Asynchronous vs synchronous replication (input-buffer switch, multiple multicast)",
		XLabel:  "load",
		Metrics: []Metric{MetricMcastLatency, MetricMcastP95, MetricThroughput},
		Series:  series,
		Notes:   "lock-step replication holds granted outputs while waiting for the rest: circular waits wedge the fabric, exactly the deadlock the paper cites as its reason for asynchronous replication",
	}, nil
}

// A11BufferBandwidth sweeps the central buffer's memory bandwidth: the
// companion work [33] shows that flit-wide RAMs or a register pipeline
// sustain one transfer per port per cycle (our default), where a naive
// shared-ported memory would bottleneck the whole switch.
func A11BufferBandwidth(o Options) (*Table, error) {
	bws := []int{1, 2, 4, 0} // 0 = one flit per port per cycle (unlimited)
	if o.Quick {
		bws = []int{1, 0}
	}
	const load = 0.50
	s := Series{Name: CBHW.Name}
	for _, bw := range bws {
		cfg := baseConfig(o)
		multipleMulticastShape(&cfg)
		CBHW.Apply(&cfg)
		cfg.CB.PortBandwidth = bw
		cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(load)
		x := float64(bw)
		if bw == 0 {
			x = 8 // full per-port bandwidth on an 8-port switch
		}
		s.Points = append(s.Points, runPoint(cfg, x, fmt.Sprintf("a11/bw%d", bw)))
	}
	return &Table{
		ID:      "A11",
		Title:   fmt.Sprintf("Central buffer memory bandwidth at load %.2f (multiple multicast)", load),
		XLabel:  "flits/cycle",
		Metrics: []Metric{MetricMcastLatency, MetricMcastP95, MetricThroughput},
		Series:  []Series{s},
		Notes:   "x = concurrent buffer transfers per cycle per direction; 8 = one per port (flit-wide RAM / register pipeline of [33])",
		strict:  true,
	}, nil
}

// A7HotSpot reproduces the hot-spot study the paper lists as future work:
// bimodal traffic where a fraction of the unicast background targets one hot
// node, comparing how each multicast implementation copes.
func A7HotSpot(o Options) (*Table, error) {
	fractions := []float64{0, 0.05, 0.15}
	if o.Quick {
		fractions = []float64{0, 0.15}
	}
	const load = 0.30
	var series []Series
	for _, c := range []Contender{CBHW, IBHW, SWUMIN} {
		s := Series{Name: c.Name}
		for _, f := range fractions {
			cfg := baseConfig(o)
			bimodalShape(&cfg)
			c.Apply(&cfg)
			cfg.Traffic.HotSpotFraction = f
			cfg.Traffic.HotSpotNode = 0
			cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(load)
			s.Points = append(s.Points, runPoint(cfg, f, fmt.Sprintf("a7/%s/f%.2f", c.Name, f)))
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "A7",
		Title:   fmt.Sprintf("Hot-spot unicast background at load %.2f (bimodal, hot node 0)", load),
		XLabel:  "hot_fraction",
		Metrics: []Metric{MetricUniLatency, MetricMcastLatency, MetricThroughput},
		Series:  series,
		Notes:   "future-work experiment of the paper: a fraction of unicasts all target node 0",
	}, nil
}

// A8Barrier reproduces the barrier-synchronization comparison of the
// authors' companion work across system sizes on an idle network: an
// all-software binomial barrier, a binomial gather with a hardware
// multidestination release, and the full in-switch combining barrier
// (tokens combined by the switches themselves).
func A8Barrier(o Options) (*Table, error) {
	stages := []int{2, 3, 4}
	if o.Quick {
		stages = []int{2, 3}
	}
	schemes := []core.BarrierScheme{core.BarrierSoftware, core.BarrierHardwareRelease, core.BarrierHardwareCombining}
	var series []Series
	for _, bs := range schemes {
		s := Series{Name: bs.String()}
		for _, st := range stages {
			cfg := baseConfig(o)
			cfg.Stages = st
			cfg.Traffic.OpRate = 0
			CBHW.Apply(&cfg)
			tag := fmt.Sprintf("a8/%s/N%d", bs, cfg.N())
			s.Points = append(s.Points, Point{X: float64(cfg.N()), Tag: tag, pending: &pendingPoint{harness: func(o Options) Point {
				sim, err := core.New(cfg)
				if err != nil {
					o.point(PointEvent{Tag: tag, X: float64(cfg.N()), Err: err})
					return Point{Err: err}
				}
				lat, err := sim.RunBarrier(bs, 10_000_000)
				if err != nil {
					o.point(PointEvent{Tag: tag, X: float64(cfg.N()), Cycles: sim.Now(), Err: err})
					return Point{Err: err, cycles: sim.Now()}
				}
				var col pointCollector
				col.add(float64(lat), float64(cfg.N()-1))
				res := col.results(cfg.N())
				o.progress("  %s lat=%d", tag, lat)
				o.point(PointEvent{Tag: tag, X: float64(cfg.N()),
					McastLatency: float64(lat), Cycles: sim.Now()})
				return Point{Results: res, cycles: sim.Now()}
			}}})
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "A8",
		Title:   "Barrier synchronization latency on an idle network (software, gather+HW-release, in-switch combining)",
		XLabel:  "nodes",
		Metrics: []Metric{MetricMcastLatency},
		Series:  series,
		Notes:   "mcast_lat column holds the barrier completion latency in cycles",
		strict:  true,
	}, nil
}

// A9Irregular runs the contenders on a NOW-style irregular tree of switches
// (the paper's third topology class): a load sweep of mixed traffic on a
// random 16-switch fabric.
func A9Irregular(o Options) (*Table, error) {
	// Tree fabrics concentrate cross-subtree traffic at the root, so the
	// sweep sits well below BMIN loads.
	loads := []float64{0.02, 0.05, 0.08}
	if o.Quick {
		loads = []float64{0.02, 0.08}
	}
	var series []Series
	for _, c := range []Contender{CBHW, IBHW, SWUMIN} {
		s := Series{Name: c.Name}
		for _, load := range loads {
			cfg := baseConfig(o)
			cfg.Topology = core.IrregularTree
			cfg.Tree = topology.TreeSpec{
				Switches:    16,
				MinHosts:    1,
				MaxHosts:    4,
				MaxChildren: 3,
				Seed:        o.Seed,
			}
			bimodalShape(&cfg)
			cfg.Traffic.Degree = 6
			c.Apply(&cfg)
			cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(load)
			s.Points = append(s.Points, runPoint(cfg, load, fmt.Sprintf("a9/%s/l%.2f", c.Name, load)))
		}
		series = append(series, s)
	}
	return &Table{
		ID:      "A9",
		Title:   "Irregular NOW fabric (random 16-switch tree): bimodal traffic",
		XLabel:  "load",
		Metrics: []Metric{MetricUniLatency, MetricMcastLatency, MetricThroughput},
		Series:  series,
		Notes:   "the paper's schemes applied beyond BMINs; up*/down* tree routing (root-limited bisection)",
	}, nil
}
