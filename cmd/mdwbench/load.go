package main

// The -load soak harness: an open-loop load generator against a running mdwd
// daemon (or cluster coordinator). Each tenant gets an independent Poisson
// arrival process at its share of the target rate; request latency is
// measured from the *scheduled* arrival instant, so local queueing behind the
// per-tenant client cap counts against the daemon the way a real user's wait
// would. Per-tenant percentiles and error counts append to a JSON history
// file (BENCH_load.json), the same trajectory-tracking shape as
// BENCH_sweep.json — load behavior becomes a regression surface, like
// scripts/mdwd_chaos.sh made crash safety one.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdworm/internal/engine"
)

// loadTenant is one simulated client population: a display name and the API
// key it authenticates with ("" = no Authorization header).
type loadTenant struct {
	name string
	key  string
}

// parseLoadKeys parses -load-keys: "name=key,name=key". Empty input is one
// anonymous tenant (for daemons running without -tenants).
func parseLoadKeys(spec string) ([]loadTenant, error) {
	if strings.TrimSpace(spec) == "" {
		return []loadTenant{{name: "anonymous"}}, nil
	}
	var out []loadTenant
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, key, ok := strings.Cut(part, "=")
		name, key = strings.TrimSpace(name), strings.TrimSpace(key)
		if !ok || name == "" || key == "" {
			return nil, fmt.Errorf("mdwbench: -load-keys entry %q is not name=key", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("mdwbench: -load-keys repeats tenant %q", name)
		}
		seen[name] = true
		out = append(out, loadTenant{name: name, key: key})
	}
	if len(out) == 0 {
		return nil, errors.New("mdwbench: -load-keys names no tenants")
	}
	return out, nil
}

// loadOpts parameterizes one soak run.
type loadOpts struct {
	Base     string // daemon base URL
	Duration time.Duration
	Rate     float64 // aggregate target arrivals/sec, split evenly across tenants
	Clients  int     // max in-flight requests per tenant
	Tenants  []loadTenant
	Seed     uint64
	Verbose  bool
}

// tenantLoadStats accumulates one tenant's soak outcome.
type tenantLoadStats struct {
	mu        sync.Mutex
	latencies []time.Duration // completed (2xx) requests only
	ok        int
	throttled int // 429 + 503: backpressure, not failure
	clientErr int // other 4xx
	serverErr int // 5xx except 503
	transport int // connection/timeout errors
}

// loadTenantReport is one tenant's row in the published report.
type loadTenantReport struct {
	Tenant          string  `json:"tenant"`
	Requests        int     `json:"requests"`
	OK              int     `json:"ok"`
	Throttled       int     `json:"throttled"`
	ClientErrors    int     `json:"client_errors"`
	ServerErrors    int     `json:"server_errors"`
	TransportErrors int     `json:"transport_errors"`
	AchievedPerSec  float64 `json:"achieved_ok_per_sec"`
	P50Ms           float64 `json:"p50_ms"`
	P95Ms           float64 `json:"p95_ms"`
	P99Ms           float64 `json:"p99_ms"`
	MaxMs           float64 `json:"max_ms"`
}

// loadReport is one BENCH_load.json history entry.
type loadReport struct {
	Timestamp     string             `json:"timestamp"`
	GoVersion     string             `json:"go_version,omitempty"`
	Daemon        string             `json:"daemon"`
	Seconds       float64            `json:"duration_seconds"`
	TargetPerSec  float64            `json:"target_rate_per_sec"`
	ClientsPerTen int                `json:"clients_per_tenant"`
	Seed          uint64             `json:"seed"`
	Tenants       []loadTenantReport `json:"tenants"`
}

// runLoad executes the soak: one Poisson generator plus a bounded worker set
// per tenant, all against o.Base, for o.Duration. It returns the aggregated
// report; transport-level context cancellation (Ctrl-C) surfaces as
// context.Canceled.
func runLoad(ctx context.Context, o loadOpts, stderr io.Writer) (*loadReport, error) {
	if o.Rate <= 0 {
		return nil, errors.New("mdwbench: -load-rate must be > 0")
	}
	if o.Clients < 1 {
		o.Clients = 1
	}
	base := strings.TrimRight(o.Base, "/")
	client := &http.Client{Timeout: 60 * time.Second}
	perTenantRate := o.Rate / float64(len(o.Tenants))

	// Unique config seeds per request force cache misses: a soak must measure
	// the scheduler and the simulator, not the result cache.
	var seq atomic.Int64

	stats := make([]*tenantLoadStats, len(o.Tenants))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(o.Duration)

	for i, tn := range o.Tenants {
		st := &tenantLoadStats{}
		stats[i] = st
		// The arrival queue is the open loop: the generator deposits each
		// arrival at its scheduled instant regardless of completions; workers
		// drain as fast as the daemon lets them. Capacity bounds memory, not
		// the arrival process (a 16k backlog at soak rates means the daemon
		// stopped answering entirely).
		arrivals := make(chan time.Time, 16384)

		wg.Add(1)
		go func(idx int, tn loadTenant) {
			defer wg.Done()
			defer close(arrivals)
			rng := rand.New(rand.NewSource(int64(o.Seed) + int64(idx)*7919))
			next := start
			for {
				// Exponential inter-arrival times make the process Poisson.
				next = next.Add(time.Duration(rng.ExpFloat64() / perTenantRate * float64(time.Second)))
				if next.After(deadline) {
					return
				}
				select {
				case <-time.After(time.Until(next)):
				case <-ctx.Done():
					return
				}
				select {
				case arrivals <- next:
				default:
					// Queue full: record as transport failure rather than
					// blocking the arrival clock.
					st.mu.Lock()
					st.transport++
					st.mu.Unlock()
				}
			}
		}(i, tn)

		for w := 0; w < o.Clients; w++ {
			wg.Add(1)
			go func(tn loadTenant) {
				defer wg.Done()
				for sched := range arrivals {
					doLoadRequest(ctx, client, base, tn, loadRunBody(o.Seed, seq.Add(1)), sched, st)
				}
			}(tn)
		}
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, context.Canceled
	}
	elapsed := time.Since(start)

	rep := &loadReport{
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		Daemon:        base,
		Seconds:       elapsed.Seconds(),
		TargetPerSec:  o.Rate,
		ClientsPerTen: o.Clients,
		Seed:          o.Seed,
	}
	for i, tn := range o.Tenants {
		st := stats[i]
		st.mu.Lock()
		row := loadTenantReport{
			Tenant:          tn.name,
			Requests:        st.ok + st.throttled + st.clientErr + st.serverErr + st.transport,
			OK:              st.ok,
			Throttled:       st.throttled,
			ClientErrors:    st.clientErr,
			ServerErrors:    st.serverErr,
			TransportErrors: st.transport,
			P50Ms:           percentileMs(st.latencies, 0.50),
			P95Ms:           percentileMs(st.latencies, 0.95),
			P99Ms:           percentileMs(st.latencies, 0.99),
			MaxMs:           percentileMs(st.latencies, 1.00),
		}
		st.mu.Unlock()
		if sec := elapsed.Seconds(); sec > 0 {
			row.AchievedPerSec = float64(row.OK) / sec
		}
		rep.Tenants = append(rep.Tenants, row)
	}
	return rep, nil
}

// loadRunBody is the /v1/run body of a soak's n-th request: a small but
// real simulation — the shape the service tests use, so one request costs
// milliseconds and the soak exercises scheduling, not one long run — whose
// config seed is drawn from (-seed, n). Every request of a soak is a fresh
// cache miss, and so is every request of a second soak with another -seed
// against the same daemon.
func loadRunBody(seed uint64, n int64) string {
	cfgSeed := engine.NewRNG(seed).Fork(uint64(n)).Uint64() >> 11 // exact in any JSON number
	return fmt.Sprintf(`{"config":{"stages":2,"degree":4,"warmup_cycles":200,"measure_cycles":800,"drain_cycles":50000,"op_rate":0.001,"seed":%d}}`, cfgSeed)
}

// doLoadRequest issues one /v1/run and files the outcome. Latency runs from
// the scheduled arrival, not the send.
func doLoadRequest(ctx context.Context, client *http.Client, base string, tn loadTenant, body string, sched time.Time, st *tenantLoadStats) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/run", strings.NewReader(body))
	if err != nil {
		st.mu.Lock()
		st.transport++
		st.mu.Unlock()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if tn.key != "" {
		req.Header.Set("Authorization", "Bearer "+tn.key)
	}
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return // shutdown, not a daemon failure
		}
		st.mu.Lock()
		st.transport++
		st.mu.Unlock()
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	lat := time.Since(sched)

	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		st.ok++
		st.latencies = append(st.latencies, lat)
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		st.throttled++
	case resp.StatusCode >= 500:
		st.serverErr++
	default:
		st.clientErr++
	}
}

// percentileMs returns the q-quantile (0 < q <= 1) of the latencies in
// milliseconds (0 with no samples). Nearest-rank on a sorted copy.
func percentileMs(lats []time.Duration, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(lats))
	copy(sorted, lats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// formatLoadReport renders the per-tenant summary table.
func formatLoadReport(w io.Writer, rep *loadReport) {
	fmt.Fprintf(w, "load soak: %s for %.1fs at %.1f req/s target (%d clients/tenant)\n",
		rep.Daemon, rep.Seconds, rep.TargetPerSec, rep.ClientsPerTen)
	fmt.Fprintf(w, "%-14s %8s %6s %9s %6s %6s %6s %9s %9s %9s\n",
		"tenant", "requests", "ok", "throttled", "4xx", "5xx", "net", "p50(ms)", "p95(ms)", "p99(ms)")
	for _, t := range rep.Tenants {
		fmt.Fprintf(w, "%-14s %8d %6d %9d %6d %6d %6d %9.1f %9.1f %9.1f\n",
			t.Tenant, t.Requests, t.OK, t.Throttled, t.ClientErrors, t.ServerErrors,
			t.TransportErrors, t.P50Ms, t.P95Ms, t.P99Ms)
	}
}

// checkLoadGates applies the regression gates: any 5xx/transport error when
// fail5xx is set, and any tenant p99 above maxP99 when one is set. A tenant
// with zero completed requests trips the p99 gate too — "no data" must not
// read as "fast".
func checkLoadGates(rep *loadReport, fail5xx bool, maxP99 time.Duration) error {
	for _, t := range rep.Tenants {
		if fail5xx && (t.ServerErrors > 0 || t.TransportErrors > 0) {
			return fmt.Errorf("mdwbench: load gate: tenant %s saw %d server errors and %d transport errors",
				t.Tenant, t.ServerErrors, t.TransportErrors)
		}
		if maxP99 > 0 {
			if t.OK == 0 {
				return fmt.Errorf("mdwbench: load gate: tenant %s completed no requests", t.Tenant)
			}
			if p99 := time.Duration(t.P99Ms * float64(time.Millisecond)); p99 > maxP99 {
				return fmt.Errorf("mdwbench: load gate: tenant %s p99 %.1fms exceeds %s",
					t.Tenant, t.P99Ms, maxP99)
			}
		}
	}
	return nil
}

// appendLoadHistory appends rep to the JSON array history at path (created
// if absent), mirroring appendBenchHistory's newest-last trajectory format.
// Returns the number of recorded runs.
func appendLoadHistory(path string, rep *loadReport) (int, error) {
	var hist []json.RawMessage
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return 0, err
	default:
		if trimmed := strings.TrimSpace(string(data)); trimmed != "" {
			if err := json.Unmarshal(data, &hist); err != nil {
				return 0, fmt.Errorf("%s: existing history unreadable: %w", path, err)
			}
		}
	}
	entry, err := json.Marshal(rep)
	if err != nil {
		return 0, err
	}
	hist = append(hist, entry)
	out, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return 0, err
	}
	return len(hist), nil
}
