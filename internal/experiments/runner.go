package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mdworm/internal/core"
	"mdworm/internal/obs"
	"mdworm/internal/stats"
)

// The parallel point runner.
//
// Every measurement of the evaluation suite is one independent simulator
// run: a point owns its own core.Sim, its own deterministically seeded RNG
// streams, and its own collectors, so the sweep is embarrassingly parallel.
// Experiment definitions therefore build their tables out of *pending*
// points — placeholders carrying a fully prepared config (or, for a custom
// harness, a closure) — and the runner resolves all pending points across a
// worker pool. Results are written in place into the already-built table
// structure, so the rendered output is byte-identical for any worker count
// (including 1) and any execution interleaving: parallelism is across sweep
// points, never within one simulated network. Points that plan the same
// configuration share one run (see resolve).

// SweepStats summarizes one resolved batch of experiment points, the
// numbers cmd/mdwbench records in BENCH_sweep.json.
type SweepStats struct {
	// Workers is the pool size the batch ran with.
	Workers int
	// Points is the number of planned points resolved.
	Points int
	// Runs is the number of measurements actually executed: one per
	// distinct standard configuration plus one per custom-harness point.
	// Runs < Points when planned points share a configuration.
	Runs int
	// Cycles is the total number of simulated cycles across all points,
	// counting a shared run once for every point it measures.
	Cycles int64
	// DestsDropped and Violations aggregate fault losses and invariant
	// checker hits across all points (both 0 on fault-free healthy runs).
	DestsDropped int64
	Violations   int64
	// Wall is the elapsed wall-clock time of the batch.
	Wall time.Duration
	// Occupancy aggregates buffer-occupancy sampling across all points; it
	// is the zero Summary unless Options.Observer was set for the batch.
	Occupancy obs.Summary
}

// PointsPerSec returns the resolution throughput in points per second.
func (s SweepStats) PointsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Points) / s.Wall.Seconds()
}

// CyclesPerSec returns the aggregate simulation speed in cycles per second.
func (s SweepStats) CyclesPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Cycles) / s.Wall.Seconds()
}

// workers returns the effective pool size: the Workers option, or
// GOMAXPROCS when unset.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forRun prepares an Options value for a (possibly parallel) run: the
// progress writer and point callback gain a lock shared by every pool
// worker.
func (o Options) forRun() Options {
	if (o.Progress != nil || o.OnPoint != nil) && o.progressMu == nil {
		o.progressMu = &sync.Mutex{}
	}
	return o
}

// canceled reports the sweep's cancellation cause, if any.
func (o Options) canceled() error {
	if o.Context == nil {
		return nil
	}
	return o.Context.Err()
}

// resolve measures every pending point of the given tables across a worker
// pool and writes the results in place. Point identity (series, x) is fixed
// by the table structure before resolution, so execution order cannot
// change the output.
//
// Standard points are grouped by the content address of their prepared
// configuration (core.ContentAddress): each distinct configuration is
// simulated — or handed to o.Resolver — once per sweep, and its measurement
// is delivered to every planned point that shares it. The simulator is
// deterministic, so a shared measurement is exactly what each member would
// have measured on its own. Groups are dispatched in the planned order of
// their first member; custom-harness points and points whose configuration
// does not canonicalize are groups of one.
func resolve(tables []*Table, o Options) SweepStats {
	o = o.forRun()
	start := time.Now()
	groups, points := groupPoints(tables)
	w := o.workers()
	if w > len(groups) {
		w = len(groups)
	}
	// A canceled sweep stops picking up work: the group in flight on each
	// worker finishes (simulator runs are not interruptible mid-cycle),
	// every remaining point fails with the context's error, and the
	// caller sees that error from Run/RunIDs.
	var runs atomic.Int64
	run := func(g []*Point) {
		if err := o.canceled(); err != nil {
			for _, p := range g {
				p.Err = err
				p.pending = nil
			}
			return
		}
		runs.Add(1)
		resolveGroup(g, o)
	}
	if w <= 1 {
		for _, g := range groups {
			run(g)
		}
	} else {
		ch := make(chan []*Point)
		var wg sync.WaitGroup
		wg.Add(w)
		for i := 0; i < w; i++ {
			go func() {
				defer wg.Done()
				for g := range ch {
					run(g)
				}
			}()
		}
		for _, g := range groups {
			ch <- g
		}
		close(ch)
		wg.Wait()
	}
	st := SweepStats{Workers: o.workers(), Points: points, Runs: int(runs.Load()), Wall: time.Since(start)}
	for _, t := range tables {
		for si := range t.Series {
			for pi := range t.Series[si].Points {
				p := &t.Series[si].Points[pi]
				st.Cycles += p.cycles
				st.DestsDropped += p.Results.DestsDropped
				st.Violations += p.Results.InvariantViolations
				// Occupancy is recorded in planned order, not completion
				// order: the aggregate's means are sample-weighted float
				// sums, so a fixed order keeps SweepStats.Occupancy the same
				// for every worker count.
				if p.occ != nil {
					o.Observer.Record(p.Tag, *p.occ)
					p.occ = nil
				}
			}
		}
	}
	if o.Observer != nil {
		st.Occupancy = o.Observer.Aggregate()
	}
	return st
}

// groupPoints collects the pending points of the given tables into
// measurement groups, in the planned order of each group's first member,
// and counts the pending points.
func groupPoints(tables []*Table) (groups [][]*Point, points int) {
	byAddr := map[string]int{}
	for _, t := range tables {
		for si := range t.Series {
			for pi := range t.Series[si].Points {
				p := &t.Series[si].Points[pi]
				if p.pending == nil {
					continue
				}
				points++
				if p.pending.harness == nil {
					if addr, _, err := core.ContentAddress(p.pending.cfg); err == nil {
						if gi, ok := byAddr[addr]; ok {
							groups[gi] = append(groups[gi], p)
							continue
						}
						byAddr[addr] = len(groups)
					}
				}
				groups = append(groups, []*Point{p})
			}
		}
	}
	return groups, points
}

// resolveGroup measures one group and materializes each of its points in
// place. The placeholder's X is authoritative (experiments occasionally
// relabel an axis after scheduling the point).
func resolveGroup(g []*Point, o Options) {
	lead := g[0]
	if h := lead.pending.harness; h != nil {
		r := h(o)
		r.X, r.Tag = lead.X, lead.Tag
		*lead = r
		return
	}
	m := measure(lead.pending.cfg, lead.Tag, o)
	for i, p := range g {
		if i > 0 {
			m.res = m.res.Clone()
		}
		finish(p, m, o)
	}
}

// measurement is the outcome of one standard run, shared by every point of
// its group.
type measurement struct {
	res    stats.Results
	cycles int64
	occ    *obs.Summary // occupancy capture; nil unless o.Observer is set
	err    error
}

// measure runs one standard configuration: through o.Resolver when one is
// installed (tag names the run to it), otherwise locally with a core.New
// and Run, under the sweep's occupancy capture if o.Observer is set.
func measure(cfg core.Config, tag string, o Options) measurement {
	if o.Resolver != nil {
		res, cycles, err := o.Resolver(cfg, tag)
		return measurement{res: res, cycles: cycles, err: err}
	}
	sim, err := core.New(cfg)
	if err != nil {
		return measurement{err: err}
	}
	var occ *obs.Capture
	if o.Observer != nil {
		every := o.Observer.SampleEvery
		if every <= 0 {
			every = 64
		}
		occ = &obs.Capture{SampleEvery: every}
		sim.Observe(occ)
	}
	res, err := sim.Run()
	m := measurement{res: res, cycles: sim.Now(), err: err}
	if err == nil && occ != nil {
		s := occ.Summary()
		m.occ = &s
	}
	return m
}

// finish delivers a measurement to one planned point under the point's own
// tag: the progress line and the structured event, then the point's results
// and occupancy summary (recorded by resolve once the pool drains) — or its
// error, wrapped with its tag and passed through the point's relabel hook.
func finish(p *Point, m measurement, o Options) {
	relabel := p.pending.relabel
	p.pending = nil
	p.cycles = m.cycles
	if m.err != nil {
		err := fmt.Errorf("%s: %w", p.Tag, m.err)
		o.point(PointEvent{Tag: p.Tag, X: p.X, Cycles: m.cycles, Err: err})
		if relabel != nil {
			err = relabel(err)
		}
		p.Err = err
		return
	}
	p.occ = m.occ
	res := m.res
	thr := res.Multicast.DeliveredPayloadPerNodeCycle + res.Unicast.DeliveredPayloadPerNodeCycle
	line := fmt.Sprintf("  %-28s x=%-8.4g mcast=%.1f uni=%.1f thr=%.3f sat=%v",
		p.Tag, p.X,
		res.Multicast.LastArrival.Mean, res.Unicast.LastArrival.Mean,
		thr, res.Saturated)
	// Fault-free runs keep the historical line format byte-for-byte.
	if res.DestsDropped > 0 || res.InvariantViolations > 0 {
		line += fmt.Sprintf(" dropped=%d violations=%d", res.DestsDropped, res.InvariantViolations)
	}
	o.progress("%s", line)
	o.point(PointEvent{
		Tag:          p.Tag,
		X:            p.X,
		McastLatency: res.Multicast.LastArrival.Mean,
		UniLatency:   res.Unicast.LastArrival.Mean,
		Throughput:   thr,
		Saturated:    res.Saturated,
		OpsDegraded:  res.OpsDegraded,
		DestsDropped: res.DestsDropped,
		Violations:   res.InvariantViolations,
		Cycles:       m.cycles,
	})
	p.Results = res
}

// firstPointErr returns the first point error of a table in layout order.
func firstPointErr(t *Table) error {
	for _, s := range t.Series {
		for _, p := range s.Points {
			if p.Err != nil {
				return p.Err
			}
		}
	}
	return nil
}
