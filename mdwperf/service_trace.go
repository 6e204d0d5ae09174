package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"mdworm/internal/core"
	"mdworm/internal/service"
)

// traceService runs the fixed-rate phase twice, untraced then traced (CPU
// profile, /metrics deltas, job views), and replays the traced phase's own
// fresh configs through the service's public functions on a scratch
// directory.
func traceService(ctx context.Context, r *run, sh serviceShape, d *svcDaemon, c *checker) error {
	n := int(sh.rate * r.budget(0.3).Seconds())
	plain := d.drive(ctx, d.plan(n, sh.warm, sh.rate), true, r.procs, 0)
	c.check(r, plain)
	lat, late := latencies(plain)
	lateTail, _, _, _ := tailPercentile(late, 99)
	r.set("bench.generator_late_p99_ms", lateTail)

	before, err := scrape(ctx, d.client, d.lb.URL)
	if err != nil {
		return err
	}
	var traced []outcome
	var wall time.Duration
	prof, err := cpuProfile(func() error {
		t0 := time.Now()
		traced = d.drive(ctx, d.plan(n, sh.warm, sh.rate), true, r.procs, 0)
		wall = time.Since(t0)
		return nil
	})
	if err != nil {
		return err
	}
	after, err := scrape(ctx, d.client, d.lb.URL)
	if err != nil {
		return err
	}
	c.check(r, traced)
	tlat, _ := latencies(traced)
	r.set("bench.trace_overhead_frac", median(tlat)/median(lat)-1)
	if err := setCPUShares(r, prof); err != nil {
		return err
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("mdwd_cache_hits"), delta("mdwd_cache_misses")
	r.set("service.cache_hit_frac", hits/(hits+misses))
	r.set("service.busy_frac", delta("mdwd_busy_seconds")/(wall.Seconds()*float64(r.procs)))
	refused := 0
	for _, o := range traced {
		if o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable {
			refused++
		}
	}
	r.set("service.refused", float64(refused))

	if err := jobSpans(ctx, r, d, traced); err != nil {
		return err
	}

	var fresh []core.Config
	for _, o := range traced {
		if o.sent && o.status == http.StatusOK && o.req.stream == streamFresh && len(fresh) < replayConfigs {
			cfg, err := requestConfig(r.seed, o.req.stream, o.req.key).Resolve()
			if err != nil {
				return err
			}
			fresh = append(fresh, cfg)
		}
	}
	probe, err := replayService(r, fresh)
	if err != nil {
		return err
	}
	probe.report(r, probe.counts.cycles)
	r.set("bench.error_frac", float64(r.failures())/float64(r.attempted))
	return c.oracle(r, 12)
}

// listJobs returns the job views a daemon shows the holder of key.
func listJobs(ctx context.Context, c *http.Client, base, key string) ([]service.JobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("list jobs: %w", err)
	}
	defer resp.Body.Close()
	var body struct {
		Jobs []service.JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("list jobs: %w", err)
	}
	return body.Jobs, nil
}

// jobTimes parses a job view's timestamps.
func jobTimes(v service.JobView) (created, started, finished time.Time, ok bool) {
	created, err1 := time.Parse(time.RFC3339Nano, v.Created)
	started, err2 := time.Parse(time.RFC3339Nano, v.Started)
	finished, err3 := time.Parse(time.RFC3339Nano, v.Finished)
	return created, started, finished, err1 == nil && err2 == nil && err3 == nil
}

// setJobMetrics sets the queue-wait and job-run metrics from per-job
// samples in milliseconds.
func setJobMetrics(r *run, wait, job []float64) {
	if len(job) == 0 {
		return
	}
	r.set("service.queue_wait_p50_ms", median(wait))
	tail, _, _, ok := tailPercentile(wait, 99)
	if !ok {
		tail = quantile(wait, 1)
	}
	r.set("service.queue_wait_p99_ms", tail)
	r.set("service.job_p50_ms", median(job))
	r.samples["service.jobs"] = len(job)
}

// jobSpans reads each tenant's job views and splits every answered request
// into queue wait, job run time and front-door time (request latency minus
// the job's span; a cache hit has no job and is all front door).
func jobSpans(ctx context.Context, r *run, d *svcDaemon, outs []outcome) error {
	views := map[string]service.JobView{}
	for _, t := range benchTenants {
		jobs, err := listJobs(ctx, d.client, d.lb.URL, t.key)
		if err != nil {
			return err
		}
		for _, v := range jobs {
			views[v.ID] = v
		}
	}
	var wait, job, front []float64
	for _, o := range outs {
		if !o.sent || o.status != http.StatusOK {
			continue
		}
		reqLat := o.end.Sub(o.start)
		if o.job == "" {
			front = append(front, ms(reqLat))
			continue
		}
		v, ok := views[o.job]
		if !ok {
			r.problem("job %s of an answered request is not listed", o.job)
			continue
		}
		created, started, finished, ok := jobTimes(v)
		if !ok {
			r.problem("job %s has unreadable timestamps", o.job)
			continue
		}
		wait = append(wait, ms(started.Sub(created)))
		job = append(job, ms(finished.Sub(started)))
		front = append(front, ms(reqLat-finished.Sub(created)))
	}
	setJobMetrics(r, wait, job)
	r.set("service.front_door_p50_ms", median(front))
	return nil
}

// replayConfigs bounds how many of a run's configs the service replay uses.
const replayConfigs = 48

// replayService times the service's public functions on the given configs
// — hash, simulate, encode, digest, journal append with fsync, disk cache
// put, memory and disk cache get — on a scratch directory, sets the service
// replay metrics, and returns the probe of its simulations.
func replayService(r *run, cfgs []core.Config) (*coreProbe, error) {
	probe := newCoreProbe()
	if len(cfgs) == 0 {
		return probe, nil
	}
	dir, err := os.MkdirTemp(r.dir, "replay-*")
	if err != nil {
		return nil, err
	}
	j, err := service.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		return nil, err
	}
	defer j.Close()
	cacheDir := filepath.Join(dir, "cache")
	cache, err := service.NewCache(len(cfgs)+1, cacheDir)
	if err != nil {
		return nil, err
	}
	// each times fn over reps calls and returns the mean in microseconds.
	each := func(reps int, fn func()) float64 {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(reps)
	}
	var hashUs, encUs, shaUs, journalUs, putUs, memUs, diskUs []float64
	var hashes []string
	for _, cfg := range cfgs {
		hash, canon, err := service.Hash(cfg)
		if err != nil {
			return nil, err
		}
		hashUs = append(hashUs, each(20, func() { _, _, _ = service.Hash(cfg) }))

		t0 := time.Now()
		sim, err := core.New(canon)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		res, err := sim.Run()
		probe.record("replay", sim, t1.Sub(t0), time.Since(t1))
		if err != nil {
			return nil, err
		}
		resp := service.RunResponse{Hash: hash, Config: canon, Results: res, SimulatedCycles: sim.Now()}
		body, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		encUs = append(encUs, each(20, func() { _, _ = json.Marshal(resp) }))
		shaUs = append(shaUs, each(20, func() { service.BodySHA(body) }))

		canonJSON, err := json.Marshal(canon)
		if err != nil {
			return nil, err
		}
		var jerr error
		journalUs = append(journalUs, each(1, func() {
			jerr = j.Append(service.JournalRec{Kind: service.RecAccepted, Hash: hash,
				JobKind: "run", Tenant: benchTenants[0].name, Config: canonJSON})
		}))
		if jerr != nil {
			return nil, jerr
		}
		putUs = append(putUs, each(1, func() { cache.Put(hash, body) }))
		memUs = append(memUs, each(20, func() { cache.Get(hash) }))
		hashes = append(hashes, hash)
	}
	// A one-entry cache over the same directory serves each key from disk
	// (the previous key is evicted from memory by the next).
	disk, err := service.NewCache(1, cacheDir)
	if err != nil {
		return nil, err
	}
	for _, h := range hashes {
		var ok bool
		diskUs = append(diskUs, each(1, func() { _, ok = disk.Get(h) }))
		if !ok {
			return nil, fmt.Errorf("replay: cache entry %s not found on disk", h)
		}
	}
	r.set("service.hash_us", median(hashUs))
	r.set("service.encode_us", median(encUs))
	r.set("service.body_sha_us", median(shaUs))
	r.set("service.journal_append_us", median(journalUs))
	r.set("service.cache_put_us", median(putUs))
	r.set("service.cache_get_mem_us", median(memUs))
	r.set("service.cache_get_disk_us", median(diskUs))
	r.samples["service.replayed"] = len(cfgs)
	return probe, nil
}
