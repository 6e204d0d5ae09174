package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mdworm/internal/core"
	"mdworm/internal/service"
)

// The service workloads: POST /v1/run against an in-process service.Server
// with two bearer-key tenants (weights 4:1) and a fresh persistent cache
// directory, so the journal and the disk cache are on.
//
// service-cold sends a distinct config on every request, so the full write
// path runs each time: auth, decode, hash, journal fsync, tenant queue,
// core.New and Run, encode and SHA-256, disk Cache.Put. service-warm draws
// about 90% of its requests by Zipf over a working set larger than the
// in-memory LRU (pre-warmed to disk in set-up) and 10% fresh configs: the
// read path (memory and disk Cache.Get, BodySHA) with writes contending on
// the same cache, and almost no simulation.
//
// BENCHMARK.json does not gate on these two workloads: on a shared machine
// their tails and SLO-bound capacities swung beyond any usable bound when
// the host was contended (README.md, "Dropped from the gate"). They run by
// hand with the same command.

// serviceShape is one service workload's traffic and limits.
type serviceShape struct {
	warm bool
	// rate is the fixed open-loop rate (req/s) of run_p50_ms/run_p99_ms,
	// below the knee.
	rate float64
	// ladder is the fixed capacity ladder (req/s, ascending) and slo the
	// tail-latency limit a step must meet.
	ladder []float64
	slo    time.Duration
	// batch is the request count of the closed-loop batch behind
	// sweep_wall_s and sim_cycles_per_s.
	batch  int
	setups int
}

// The fixed rates sit at a tenth or less of each daemon's closed-loop
// throughput on a quiet 2-CPU machine. On a shared machine that throughput
// was seen to drop by a factor of 2.5 for minutes at a time, and a
// fixed-rate phase near the knee then measures queueing rather than the
// request path. The ladders span a factor of 32 in steps of 5.7%. The SLOs
// are generous next to a request's few milliseconds, so that the capacity
// found is the throughput knee rather than whether a 20-50 ms scheduling
// stall happened to land in a probe.
var (
	serviceCold = serviceShape{rate: 40, ladder: geomLadder(40, 1280, 64),
		slo: 250 * time.Millisecond, batch: 1000, setups: 41}
	serviceWarm = serviceShape{warm: true, rate: 200, ladder: geomLadder(200, 6400, 64),
		slo: 200 * time.Millisecond, batch: 5000, setups: 3}
)

// geomLadder returns n rates from lo to hi in equal ratios.
func geomLadder(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo * math.Pow(hi/lo, float64(i)/float64(n-1))
	}
	return out
}

// The two tenants; requests split evenly between them.
var benchTenants = []struct {
	name, key string
	weight    int
}{{"gold", "k-gold", 4}, {"bronze", "k-bronze", 1}}

// Further request-stream tags (see requests.go): the per-request draws that
// pick a tenant and space open-loop arrivals.
const (
	streamTenant   = 3
	streamArrivals = 4
)

// svcDaemon is one in-process daemon and the client state of a run.
type svcDaemon struct {
	seed      uint64
	srv       *service.Server
	lb        *loopback
	client    *http.Client
	closeIdle func()
	cdf       []float64
	// next is the next request index and fresh the next fresh-config index:
	// neither is used twice in a run.
	next, fresh int
}

// startService brings up a daemon on a fresh cache directory and, for
// service-warm, fills the working set through the API.
func startService(r *run, sh serviceShape) (*svcDaemon, error) {
	dir, err := os.MkdirTemp(r.dir, "cache-*")
	if err != nil {
		return nil, err
	}
	var spec bytes.Buffer
	for _, t := range benchTenants {
		fmt.Fprintf(&spec, "%s %s %d\n", t.key, t.name, t.weight)
	}
	ts, err := service.ParseTenants(spec.Bytes())
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{Workers: r.procs, CacheEntries: cacheEntries,
		CacheDir: dir, MaxCycles: 5_000_000, Tenants: ts})
	if err != nil {
		return nil, err
	}
	lb, err := serveLoopback(srv.Handler())
	if err != nil {
		srv.Drain(time.Minute)
		return nil, err
	}
	client, closeIdle := newClient(r.procs)
	d := &svcDaemon{seed: r.seed, srv: srv, lb: lb, client: client, closeIdle: closeIdle,
		cdf: zipfCDF(warmKeys, zipfS)}
	if sh.warm {
		reqs := make([]plannedReq, warmKeys)
		for k := range reqs {
			reqs[k] = plannedReq{stream: streamWarm, key: k, tenant: k % len(benchTenants)}
		}
		for _, o := range d.drive(context.Background(), reqs, false, r.procs, 0) {
			if o.status != http.StatusOK || o.cache != "miss" || !o.shaOK {
				d.stop()
				return nil, fmt.Errorf("pre-warming key %d: status %d cache %q err %v", o.req.key, o.status, o.cache, o.err)
			}
		}
	}
	return d, nil
}

func (d *svcDaemon) stop() {
	d.lb.close()
	d.srv.Drain(time.Minute)
	d.closeIdle()
}

// plannedReq is one request of a phase: its config (stream, key), its
// tenant and, in an open loop, when it is due after the phase starts.
type plannedReq struct {
	at          time.Duration
	stream, key int
	tenant      int
}

// plan allocates the next n request indices. For rate > 0 it spaces them as
// a Poisson process of that rate.
func (d *svcDaemon) plan(n int, warm bool, rate float64) []plannedReq {
	reqs := make([]plannedReq, n)
	at := time.Duration(0)
	for i := range reqs {
		idx := d.next
		d.next++
		p := plannedReq{stream: streamFresh}
		if warm {
			if fresh, key := warmRequest(d.seed, idx, d.cdf); !fresh {
				p.stream, p.key = streamWarm, key
			}
		}
		if p.stream == streamFresh {
			p.key = d.fresh
			d.fresh++
		}
		p.tenant = newDraws(d.seed, streamTenant, idx).intn(len(benchTenants))
		if rate > 0 {
			u := newDraws(d.seed, streamArrivals, idx).unit()
			at += time.Duration(-math.Log(1-u) / rate * float64(time.Second))
			p.at = at
		}
		reqs[i] = p
	}
	return reqs
}

// outcome is what one request did.
type outcome struct {
	req               plannedReq
	sent              bool
	sched, start, end time.Time
	status            int
	err               error
	job, cache, sha   string
	shaOK             bool // the body matches its X-Mdwd-Body-SHA256
}

// latency is the request's time from its scheduled instant to its reply.
func (o *outcome) latency() time.Duration { return o.end.Sub(o.sched) }

// drive sends reqs with at most procs requests in flight. In an open loop a
// request is due at its planned instant and its latency counts from then,
// so time spent waiting for a free client slot counts against the daemon; a
// closed loop sends each request as soon as a slot frees. stopLate > 0
// abandons the unsent rest once the generator runs later than that.
func (d *svcDaemon) drive(ctx context.Context, reqs []plannedReq, open bool, procs int, stopLate time.Duration) []outcome {
	outs := make([]outcome, len(reqs))
	next := make(chan int, len(reqs)) // holds every index up front
	for i := range reqs {
		next <- i
	}
	close(next)
	var late atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(procs)
	for w := 0; w < procs; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				if late.Load() || ctx.Err() != nil {
					continue
				}
				sched := time.Now()
				if open {
					sched = start.Add(reqs[i].at)
					if wait := time.Until(sched); wait > 0 {
						time.Sleep(wait)
					}
				}
				o := d.send(ctx, reqs[i])
				o.sched = sched
				if stopLate > 0 && o.start.Sub(sched) > stopLate {
					late.Store(true)
				}
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs
}

// send performs one POST /v1/run.
func (d *svcDaemon) send(ctx context.Context, p plannedReq) outcome {
	o := outcome{req: p, sent: true, start: time.Now()}
	body := requestBody(d.seed, p.stream, p.key)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.lb.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		o.err, o.end = err, time.Now()
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+benchTenants[p.tenant].key)
	resp, err := d.client.Do(req)
	if err != nil {
		o.err, o.end = err, time.Now()
		return o
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.end = time.Now()
	o.status, o.err = resp.StatusCode, err
	o.job = resp.Header.Get("X-Mdwd-Job")
	o.cache = resp.Header.Get("X-Mdwd-Cache")
	o.sha = resp.Header.Get("X-Mdwd-Body-SHA256")
	o.shaOK = err == nil && o.sha != "" && o.sha == service.BodySHA(b)
	return o
}

// checker accumulates the output checks of a run: every reply is a 200 whose
// body matches its digest, equal configs always get the same bytes, fresh
// configs miss and warm keys hit, and a sample of replies matches an
// independent local simulation of the same config.
type checker struct {
	seed    uint64
	byKey   map[[2]int]string
	sampled int
}

func (c *checker) check(r *run, outs []outcome) {
	for i := range outs {
		o := &outs[i]
		if !o.sent {
			continue
		}
		r.attempted++
		switch {
		case o.err != nil || o.status != http.StatusOK:
			r.failed++
			if o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable {
				r.problem("request refused with %d", o.status)
			} else {
				r.problem("request %d/%d: status %d err %v", o.req.stream, o.req.key, o.status, o.err)
			}
			continue
		case !o.shaOK:
			r.failed++
			r.problem("request %d/%d: body does not match its digest", o.req.stream, o.req.key)
			continue
		case o.req.stream == streamFresh && o.cache != "miss":
			r.failed++
			r.problem("fresh request %d was a cache %q", o.req.key, o.cache)
			continue
		case o.req.stream == streamWarm && o.cache != "hit":
			r.failed++
			r.problem("working-set key %d was a cache %q", o.req.key, o.cache)
			continue
		}
		k := [2]int{o.req.stream, o.req.key}
		if prev, ok := c.byKey[k]; ok && prev != o.sha {
			r.failed++
			r.problem("config %v answered with two different bodies", k)
		}
		c.byKey[k] = o.sha
	}
}

// oracle recomputes up to n answered configs locally and compares digests.
func (c *checker) oracle(r *run, n int) error {
	for k, sha := range c.byKey {
		if c.sampled >= n {
			break
		}
		c.sampled++
		want, err := localSHA(c.seed, k[0], k[1])
		if err != nil {
			return err
		}
		if want != sha {
			r.failed++
			r.problem("config %v: daemon body differs from a local run of the same config", k)
		}
	}
	return nil
}

// localSHA runs one request's config in-process, as the daemon's run job
// does, and returns the digest of the response body the daemon should send.
func localSHA(seed uint64, stream, key int) (string, error) {
	cfg, err := requestConfig(seed, stream, key).Resolve()
	if err != nil {
		return "", err
	}
	hash, canon, err := service.Hash(cfg)
	if err != nil {
		return "", err
	}
	sim, err := core.New(canon)
	if err != nil {
		return "", err
	}
	res, err := sim.Run()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(service.RunResponse{Hash: hash, Config: canon, Results: res, SimulatedCycles: sim.Now()})
	if err != nil {
		return "", err
	}
	return service.BodySHA(b), nil
}

// latencies returns the answered requests' latencies in milliseconds and
// how late (ms) the generator sent each request.
func latencies(outs []outcome) (lat, late []float64) {
	for i := range outs {
		o := &outs[i]
		if o.sent && o.err == nil && o.status == http.StatusOK {
			lat = append(lat, ms(o.latency()))
			late = append(late, ms(o.start.Sub(o.sched)))
		}
	}
	return lat, late
}

// probe runs one capacity-ladder step: an open loop at rate for dur. The
// step passes when every request is answered, the tail latency meets the
// SLO, and the generator never falls behind by more than the SLO (a
// growing backlog).
func (d *svcDaemon) probe(ctx context.Context, r *run, sh serviceShape, c *checker, rate float64, dur time.Duration) bool {
	n := max(int(rate*dur.Seconds()), 11)
	outs := d.drive(ctx, d.plan(n, sh.warm, rate), true, r.procs, sh.slo)
	failed := r.failed
	c.check(r, outs)
	lat, _ := latencies(outs)
	if r.failed != failed || len(lat) < n {
		return false
	}
	tail, _, _, ok := tailPercentile(lat, 99)
	return ok && tail <= ms(sh.slo)
}

func runService(r *run, sh serviceShape) error {
	ctx := context.Background()
	var setups []float64
	var d *svcDaemon
	for i := 0; i < sh.setups; i++ {
		if d != nil {
			d.stop()
			// Spacing the set-ups keeps one file-system stall (a journal
			// commit under the daemon's first mkdir, create and rename) from
			// covering all of them.
			time.Sleep(75 * time.Millisecond)
		}
		t0 := time.Now()
		var err error
		if d, err = startService(r, sh); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()
	c := &checker{seed: r.seed, byKey: map[[2]int]string{}}
	if r.traced {
		return traceService(ctx, r, sh, d, c)
	}

	// Fixed-rate open loop: run_p50_ms and run_p99_ms.
	mem := startMemSampler(true)
	n := int(sh.rate * r.budget(0.6).Seconds())
	outs := d.drive(ctx, d.plan(n, sh.warm, sh.rate), true, r.procs, 0)
	c.check(r, outs)
	lat, _ := latencies(outs)
	setLatency(r, lat)

	// Closed-loop batch: sweep_ref_s and sim_cycles_per_ref_s, with the
	// reference kernel timed on either side of it, and their CPU and wall
	// counterparts.
	before, err := scrape(ctx, d.client, d.lb.URL)
	if err != nil {
		return err
	}
	clock := &refClock{procs: r.procs}
	refBefore := clock.tick()
	cpu0, t0 := cpuTime(), time.Now()
	outs = d.drive(ctx, d.plan(sh.batch, sh.warm, 0), false, r.procs, 0)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	refCPU := cpu.Seconds() * scale((refBefore+clock.tick())/2)
	after, err := scrape(ctx, d.client, d.lb.URL)
	if err != nil {
		return err
	}
	c.check(r, outs)
	cycles := after["mdwd_simulated_cycles_total"] - before["mdwd_simulated_cycles_total"]
	r.set("sweep_ref_s", refCPU)
	r.set("sim_cycles_per_ref_s", cycles/refCPU)
	r.set("sweep_cpu_s", cpu.Seconds())
	r.set("sim_cycles_per_cpu_s", cycles/cpu.Seconds())
	r.set("sweep_wall_s", wall.Seconds())
	r.set("sim_cycles_per_s", cycles/wall.Seconds())

	// Capacity: bisect the fixed ladder for its highest step that passes,
	// assuming a step passes whenever a higher one does.
	dur := r.budget(0.05)
	lo, hi := -1, len(sh.ladder)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if d.probe(ctx, r, sh, c, sh.ladder[mid], dur) {
			lo = mid
		} else {
			hi = mid
		}
	}
	mem.finish(r)
	if lo < 0 {
		return fmt.Errorf("even the lowest ladder step (%.0f req/s) misses the %s SLO", sh.ladder[0], sh.slo)
	}
	r.set("capacity_rps", sh.ladder[lo])
	r.note("capacity: step %d of %d, SLO %s on the tail latency", lo, len(sh.ladder), sh.slo)

	r.set("setup_s", median(setups)*clock.report(r))
	r.set("setup_wall_s", median(setups))
	return c.oracle(r, 12)
}
