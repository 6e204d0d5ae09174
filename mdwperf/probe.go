package main

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mdworm/internal/core"
	"mdworm/internal/experiments"
	"mdworm/internal/stats"
)

// coreProbe times core.New and Simulator.Run from outside and sums the
// simulators' exact work counters. It runs as an experiments.Options.Resolver
// (which receives each standard point's own config) or over a replay of a
// service run's configs.
type coreProbe struct {
	mu         sync.Mutex
	build, run time.Duration
	points     int
	tags       map[string]bool
	counts     workCounts
	// cfgs keeps each successfully resolved point's config by tag, for the
	// service replay of a traced cluster run.
	cfgs map[string]core.Config
}

// workCounts are exact per-run counters: a change that only makes the code
// faster leaves every one of them identical.
type workCounts struct {
	cycles, flitHops, decodes, replications   int64
	bufferFlits, bypassFlits, holBlocked      int64
	flitsInjected, overheadCycles, violations int64
}

func newCoreProbe() *coreProbe {
	return &coreProbe{tags: map[string]bool{}, cfgs: map[string]core.Config{}}
}

// resolve builds and runs one point, as experiments' own local path does.
func (p *coreProbe) resolve(cfg core.Config, tag string) (stats.Results, int64, error) {
	t0 := time.Now()
	sim, err := core.New(cfg)
	t1 := time.Now()
	if err != nil {
		return stats.Results{}, 0, err
	}
	res, err := sim.Run()
	t2 := time.Now()
	p.record(tag, sim, t1.Sub(t0), t2.Sub(t1))
	if err == nil {
		p.mu.Lock()
		p.cfgs[tag] = cfg
		p.mu.Unlock()
	}
	return res, sim.Now(), err
}

// record files one finished simulator's timings and counters.
func (p *coreProbe) record(tag string, sim *core.Simulator, build, run time.Duration) {
	var c workCounts
	c.cycles = sim.Now()
	for _, s := range sim.CBStats() {
		c.flitHops += s.FlitsOut
		c.decodes += s.Decodes
		c.replications += s.Replications
		c.bufferFlits += s.BufferFlits
		c.bypassFlits += s.BypassFlits
	}
	for _, s := range sim.IBStats() {
		c.flitHops += s.FlitsOut
		c.decodes += s.Decodes
		c.replications += s.Replications
		c.holBlocked += s.HOLBlockedSum
	}
	for _, s := range sim.NICStats() {
		c.flitsInjected += s.FlitsInjected
		c.overheadCycles += s.OverheadCycles
	}
	c.violations = sim.Invariants().Total()

	p.mu.Lock()
	defer p.mu.Unlock()
	p.build += build
	p.run += run
	p.points++
	p.tags[tag] = true
	p.counts.cycles += c.cycles
	p.counts.flitHops += c.flitHops
	p.counts.decodes += c.decodes
	p.counts.replications += c.replications
	p.counts.bufferFlits += c.bufferFlits
	p.counts.bypassFlits += c.bypassFlits
	p.counts.holBlocked += c.holBlocked
	p.counts.flitsInjected += c.flitsInjected
	p.counts.overheadCycles += c.overheadCycles
	p.counts.violations += c.violations
}

// report sets the core and work-count metrics. simCycles is the cycle count
// to report as engine.sim_cycles (a sweep's total includes the points the
// Resolver cannot see).
func (p *coreProbe) report(r *run, simCycles int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.counts
	r.set("core.build_s", p.build.Seconds())
	r.set("core.run_s", p.run.Seconds())
	if c.cycles > 0 {
		r.set("core.ns_per_cycle", float64(p.run.Nanoseconds())/float64(c.cycles))
	}
	if c.flitHops > 0 {
		r.set("core.ns_per_flit_hop", float64(p.run.Nanoseconds())/float64(c.flitHops))
	}
	r.set("engine.sim_cycles", float64(simCycles))
	r.set("switches.flit_hops", float64(c.flitHops))
	r.set("routing.decodes", float64(c.decodes))
	r.set("switches.replications", float64(c.replications))
	r.set("centralbuf.buffer_flits", float64(c.bufferFlits))
	r.set("centralbuf.bypass_flits", float64(c.bypassFlits))
	r.set("inputbuf.hol_blocked_cycles", float64(c.holBlocked))
	r.set("nic.flits_injected", float64(c.flitsInjected))
	r.set("nic.overhead_cycles", float64(c.overheadCycles))
	r.set("engine.invariant_violations", float64(c.violations))
	r.samples["core.points"] = p.points
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 17 [running]:"). The sweep pool gives no worker identity, and
// a worker's OnPoint deliveries run on its own goroutine, so the id tells the
// deliveries of one worker apart.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64) // 0 if the header format ever changes
	return id
}

// poolTimeline records when, and on which pool worker, each sweep point was
// delivered. Consecutive deliveries of one worker bound that worker's
// points, because a worker takes its next point as soon as it delivers one.
type poolTimeline struct {
	mu     sync.Mutex
	start  time.Time
	events []poolEvent
}

type poolEvent struct {
	at  time.Duration
	gid int64
	tag string
}

func (t *poolTimeline) onPoint(ev experiments.PointEvent) {
	at := time.Since(t.start)
	gid := goid()
	t.mu.Lock()
	t.events = append(t.events, poolEvent{at, gid, ev.Tag})
	t.mu.Unlock()
}

// report sets the experiments.* metrics for a sweep that ran on workers
// pool workers for wall; resolved names the points the Resolver saw (the
// rest ran a custom harness).
func (t *poolTimeline) report(r *run, workers int, wall time.Duration, resolved map[string]bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := map[int64]time.Duration{}
	var durs []float64
	var harness time.Duration
	for _, ev := range t.events { // delivery order is time order
		d := ev.at - last[ev.gid]
		last[ev.gid] = ev.at
		durs = append(durs, ms(d))
		if !resolved[ev.tag] {
			harness += d
		}
	}
	busy := time.Duration(0)
	firstIdle := wall
	for _, at := range last {
		busy += at
		if at < firstIdle {
			firstIdle = at
		}
	}
	r.set("experiments.pool_busy_frac", busy.Seconds()/(float64(workers)*wall.Seconds()))
	r.set("experiments.tail_s", (wall - firstIdle).Seconds())
	r.set("experiments.point_p50_ms", median(durs))
	r.set("experiments.point_max_ms", quantile(durs, 1))
	r.set("experiments.harness_s", harness.Seconds())
	r.samples["experiments.points"] = len(durs)
}
