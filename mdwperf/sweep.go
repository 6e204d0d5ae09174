package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"mdworm"
	"mdworm/internal/experiments"
)

// The sweep workload: the quick full suite (e1..e8, a1..a11, c1..c6) through
// mdworm.RunExperiments with one pool worker per CPU. It is
// simulator-bound: links, the CB and IB switch steps, the NIC, routing and
// the collective driver do almost all the work, and neither the service nor
// the cluster layer runs.

// sweepOpts returns the options of one benchmark sweep.
func sweepOpts(r *run) experiments.Options {
	return experiments.Options{Quick: true, Seed: r.seed, Workers: r.procs}
}

// sweepResult is one resolved sweep.
type sweepResult struct {
	tables   []*experiments.Table
	stats    experiments.SweepStats
	wall     time.Duration
	cpu      time.Duration // CPU time of the whole process during the sweep
	rendered []byte
	// toResult holds, per point, the time from the start of the call to the
	// point's delivery, in milliseconds.
	toResult []float64
	events   map[string]experiments.PointEvent
}

// sweepOnce resolves the suite once with options o; onPoint, when non-nil,
// also sees every point event.
func sweepOnce(o experiments.Options, onPoint func(experiments.PointEvent)) (*sweepResult, error) {
	res := &sweepResult{events: map[string]experiments.PointEvent{}}
	cpu0 := cpuTime()
	start := time.Now()
	o.OnPoint = func(ev experiments.PointEvent) { // serialized by the pool
		res.toResult = append(res.toResult, ms(time.Since(start)))
		res.events[ev.Tag] = ev
		if onPoint != nil {
			onPoint(ev)
		}
	}
	tables, st, err := mdworm.RunExperiments(mdworm.ExperimentIDs(), o)
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	res.tables, res.stats = tables, st
	var buf bytes.Buffer
	mdworm.WriteTables(&buf, tables)
	res.rendered = buf.Bytes()
	return res, nil
}

// checkSweep marks the sweep's unexpected point failures. A10's sync rows
// deadlock by design (the paper predicts it) and must render the watchdog's
// "DEADLOCK at cycle ..." row; every other point must succeed, and the
// model's invariant checker must stay silent.
func checkSweep(r *run, s *sweepResult, planned int) {
	if s.stats.Points != planned {
		r.problem("sweep resolved %d points, planned %d", s.stats.Points, planned)
		r.failed++
	}
	if s.stats.Violations != 0 {
		r.problem("sweep hit %d invariant violations", s.stats.Violations)
	}
	for _, t := range s.tables {
		for _, se := range t.Series {
			for _, p := range se.Points {
				if p.Err == nil {
					continue
				}
				if strings.EqualFold(t.ID, "a10") && strings.HasPrefix(p.Err.Error(), "DEADLOCK at cycle") {
					continue
				}
				r.failPoint(p.Tag)
				r.problem("point %s failed: %v", p.Tag, p.Err)
			}
		}
	}
}

// setup_s is the median of setupSamples samples, each the mean of
// setupBatch set-ups in a row, after setupWarmups untimed set-ups: the
// first set-ups of a process run at half speed while caches and the heap
// warm up. A set-up takes well under a millisecond, so one sample of a
// single set-up is at the mercy of a timer tick or a GC.
const setupWarmups, setupSamples, setupBatch = 20, 31, 4

// measureSetup sets setup_s from the set-up function, on the reference
// clock: the kernel's last time before the block of set-ups and its time
// right after it, as the machine's speed at start-up can differ from its
// speed later in the run.
func measureSetup(r *run, clock *refClock, setup func() (time.Duration, error)) error {
	before := clock.times[len(clock.times)-1]
	for i := 0; i < setupWarmups; i++ {
		if _, err := setup(); err != nil {
			return err
		}
	}
	var samples []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		var sum time.Duration
		for j := 0; j < setupBatch; j++ {
			d, err := setup()
			if err != nil {
				return err
			}
			sum += d
		}
		samples = append(samples, sum.Seconds()/setupBatch)
	}
	r.set("setup_s", median(samples)*scale((before+clock.tick())/2))
	r.set("setup_wall_s", median(samples))
	return nil
}

// planSuite plans the suite (the sweep's set-up) and returns the planned
// point count and how long planning took.
func planSuite(r *run) (int, time.Duration, error) {
	t0 := time.Now()
	tables, err := experiments.Plan(mdworm.ExperimentIDs(), sweepOpts(r))
	d := time.Since(t0)
	if err != nil {
		return 0, d, fmt.Errorf("plan: %w", err)
	}
	return len(experiments.PlannedTags(tables)), d, nil
}

func runSweep(r *run) error {
	if r.traced {
		planned, _, err := planSuite(r)
		if err != nil {
			return err
		}
		return traceSweep(r, planned)
	}
	costs := newSweepCosts(r)
	planned := 0
	if err := measureSetup(r, costs.clock, func() (time.Duration, error) {
		n, d, err := planSuite(r)
		planned = n
		return d, err
	}); err != nil {
		return err
	}

	// Every repetition resolves the same planned points; each is one
	// operation of the run.
	r.attempted = int64(planned)
	var toResult []float64
	var ref []byte
	mem := startMemSampler(false)
	start := time.Now()
	for {
		s, err := sweepOnce(sweepOpts(r), nil)
		if err != nil {
			return err
		}
		checkSweep(r, s, planned)
		if ref == nil {
			ref = s.rendered
		} else if !bytes.Equal(ref, s.rendered) {
			r.failed++
			r.problem("sweep %d rendered different tables than sweep 1 at the same seed", len(costs.walls)+1)
		}
		costs.add(s.wall, s.cpu, s.stats.Cycles, s.stats.Points)
		mem.cut()
		toResult = append(toResult, s.toResult...)
		if time.Since(start)+time.Duration(median(costs.walls)*float64(time.Second)) > r.seconds {
			break
		}
	}
	mem.finish(r)
	costs.report(r)
	setLatency(r, toResult)
	return nil
}

// sweepCosts gathers the figures of an untraced run's sweeps. The reference
// kernel runs before the first sweep and after each one, and each sweep's
// CPU time is rescaled by the mean of the kernel's times on either side of
// it.
type sweepCosts struct {
	clock                    *refClock
	walls, cpus, refs        []float64 // seconds per sweep
	cps, cpuCps, refCps, pps []float64 // per sweep
}

func newSweepCosts(r *run) *sweepCosts {
	c := &sweepCosts{clock: &refClock{procs: r.procs}}
	c.clock.tick()
	return c
}

// add files one sweep's wall and CPU time, simulated cycles and points.
func (c *sweepCosts) add(wall, cpu time.Duration, cycles int64, points int) {
	before := c.clock.times[len(c.clock.times)-1]
	refCPU := cpu.Seconds() * scale((before+c.clock.tick())/2)
	c.walls = append(c.walls, wall.Seconds())
	c.cpus = append(c.cpus, cpu.Seconds())
	c.refs = append(c.refs, refCPU)
	c.cps = append(c.cps, float64(cycles)/wall.Seconds())
	c.cpuCps = append(c.cpuCps, float64(cycles)/cpu.Seconds())
	c.refCps = append(c.refCps, float64(cycles)/refCPU)
	c.pps = append(c.pps, float64(points)/wall.Seconds())
}

// report sets the run's metrics, the medians over its sweeps. The raw wall
// and CPU figures go to the record.
func (c *sweepCosts) report(r *run) {
	c.clock.report(r)
	r.set("sweep_ref_s", median(c.refs))
	r.set("sim_cycles_per_ref_s", median(c.refCps))
	r.set("sweep_cpu_s", median(c.cpus))
	r.set("sim_cycles_per_cpu_s", median(c.cpuCps))
	r.set("sweep_wall_s", median(c.walls))
	r.set("sim_cycles_per_s", median(c.cps))
	r.set("capacity_rps", median(c.pps))
	r.samples["sweeps"] = len(c.walls)
}

// setLatency sets run_p50_ms and run_p99_ms from latency samples in
// milliseconds; the tail is the highest percentile (at most 99) with ten
// samples beyond it.
func setLatency(r *run, lat []float64) {
	r.set("run_p50_ms", median(lat))
	p, pct, n, ok := tailPercentile(lat, 99)
	if !ok {
		p = quantile(lat, 1)
	}
	r.set("run_p99_ms", p)
	r.samples["run_latency"] = n
	r.note("run_p99_ms is the p%.1f of %d samples", pct, n)
}

// traceSweep measures the sweep once untraced and once traced — timed
// through a Resolver, with per-worker point timing and a CPU profile — and
// checks that both render the same tables.
func traceSweep(r *run, planned int) error {
	clock := &refClock{procs: r.procs}
	clock.tick()
	plain, err := sweepOnce(sweepOpts(r), nil)
	if err != nil {
		return err
	}
	clock.tick()
	clock.report(r)
	r.attempted = int64(planned)
	checkSweep(r, plain, planned)

	probe := newCoreProbe()
	tl := &poolTimeline{}
	o := sweepOpts(r)
	o.Resolver = probe.resolve
	var traced *sweepResult
	prof, err := cpuProfile(func() error {
		tl.start = time.Now()
		var err error
		traced, err = sweepOnce(o, tl.onPoint)
		return err
	})
	if err != nil {
		return err
	}
	checkSweep(r, traced, planned)
	if !bytes.Equal(plain.rendered, traced.rendered) {
		r.failed++
		r.problem("traced sweep rendered different tables than the untraced one")
	}
	tl.report(r, o.Workers, traced.wall, probe.tags)
	probe.report(r, traced.stats.Cycles)
	if err := setCPUShares(r, prof); err != nil {
		return err
	}
	r.set("bench.sweep_wall_s", plain.wall.Seconds())
	r.set("bench.trace_overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1)
	r.set("bench.error_frac", float64(r.failures())/float64(r.attempted))
	return nil
}
