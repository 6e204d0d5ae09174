package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdworm/internal/service"
)

func TestParseLoadKeys(t *testing.T) {
	tens, err := parseLoadKeys("")
	if err != nil || len(tens) != 1 || tens[0].name != "anonymous" || tens[0].key != "" {
		t.Fatalf("empty spec = (%+v, %v), want one anonymous tenant", tens, err)
	}
	tens, err = parseLoadKeys("alpha=key-a, beta=key-b")
	if err != nil {
		t.Fatal(err)
	}
	if len(tens) != 2 || tens[0] != (loadTenant{name: "alpha", key: "key-a"}) ||
		tens[1] != (loadTenant{name: "beta", key: "key-b"}) {
		t.Fatalf("parsed %+v", tens)
	}
	for _, bad := range []string{"alpha", "=key", "alpha=", "a=k,a=j", ","} {
		if tens, err := parseLoadKeys(bad); err == nil {
			t.Errorf("parseLoadKeys(%q) = %+v, want error", bad, tens)
		}
	}
}

func TestPercentileMs(t *testing.T) {
	if got := percentileMs(nil, 0.99); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	// 1..100 ms: nearest-rank q-quantile of n=100 is simply q*100 ms.
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(100-i) * time.Millisecond // reverse order: must sort
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1.00, 100}} {
		if got := percentileMs(lats, c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q*100, got, c.want)
		}
	}
	if got := percentileMs([]time.Duration{7 * time.Millisecond}, 0.99); got != 7 {
		t.Errorf("single-sample p99 = %v, want 7", got)
	}
}

func TestLoadHistoryAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_load.json")
	rep := &loadReport{Daemon: "http://x", Tenants: []loadTenantReport{{Tenant: "a", OK: 1}}}
	if n, err := appendLoadHistory(path, rep); err != nil || n != 1 {
		t.Fatalf("first append = (%d, %v)", n, err)
	}
	if n, err := appendLoadHistory(path, rep); err != nil || n != 2 {
		t.Fatalf("second append = (%d, %v)", n, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), `"daemon"`); got != 2 {
		t.Fatalf("history holds %d entries, want 2:\n%s", got, data)
	}
	// Garbage history must error out, not be clobbered.
	bad := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := appendLoadHistory(bad, rep); err == nil {
		t.Fatal("append over garbage history succeeded")
	}
}

func TestCheckLoadGates(t *testing.T) {
	clean := &loadReport{Tenants: []loadTenantReport{{Tenant: "a", OK: 10, P99Ms: 50}}}
	if err := checkLoadGates(clean, true, 100*time.Millisecond); err != nil {
		t.Fatalf("clean report tripped a gate: %v", err)
	}
	// Throttling is backpressure, not failure.
	throttled := &loadReport{Tenants: []loadTenantReport{{Tenant: "a", OK: 10, Throttled: 50, P99Ms: 50}}}
	if err := checkLoadGates(throttled, true, 100*time.Millisecond); err != nil {
		t.Fatalf("throttled-only report tripped a gate: %v", err)
	}
	fiveXX := &loadReport{Tenants: []loadTenantReport{{Tenant: "a", OK: 10, ServerErrors: 1}}}
	if err := checkLoadGates(fiveXX, true, 0); err == nil {
		t.Fatal("server errors passed the 5xx gate")
	}
	if err := checkLoadGates(fiveXX, false, 0); err != nil {
		t.Fatalf("5xx gate fired while disabled: %v", err)
	}
	slow := &loadReport{Tenants: []loadTenantReport{{Tenant: "a", OK: 10, P99Ms: 500}}}
	if err := checkLoadGates(slow, true, 100*time.Millisecond); err == nil {
		t.Fatal("slow p99 passed the latency gate")
	}
	// Zero completions must not read as zero latency.
	silent := &loadReport{Tenants: []loadTenantReport{{Tenant: "a", OK: 0}}}
	if err := checkLoadGates(silent, true, 100*time.Millisecond); err == nil {
		t.Fatal("zero-completion tenant passed the latency gate")
	}
}

// TestRunLoadAgainstStub soaks a stub daemon for a fraction of a second: the
// keyed tenant is answered 200, the other 429, and the report must attribute
// outcomes (and Bearer keys) to the right tenant.
func TestRunLoadAgainstStub(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/run" {
			http.NotFound(w, r)
			return
		}
		switch r.Header.Get("Authorization") {
		case "Bearer key-a":
			w.Write([]byte(`{"ok":true}`))
		case "Bearer key-b":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			w.WriteHeader(http.StatusUnauthorized)
		}
	}))
	defer srv.Close()

	rep, err := runLoad(context.Background(), loadOpts{
		Base:     srv.URL,
		Duration: 400 * time.Millisecond,
		Rate:     200, // 100/s per tenant: plenty of arrivals in 400ms
		Clients:  4,
		Tenants:  []loadTenant{{name: "a", key: "key-a"}, {name: "b", key: "key-b"}},
		Seed:     1,
	}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tenants) != 2 {
		t.Fatalf("report covers %d tenants, want 2", len(rep.Tenants))
	}
	a, b := rep.Tenants[0], rep.Tenants[1]
	if a.Tenant != "a" || b.Tenant != "b" {
		t.Fatalf("tenant order %q, %q", a.Tenant, b.Tenant)
	}
	if a.OK == 0 || a.Throttled != 0 || a.ServerErrors != 0 {
		t.Fatalf("keyed tenant outcome %+v, want only 200s", a)
	}
	if a.P99Ms <= 0 || a.MaxMs < a.P99Ms || a.P50Ms > a.P99Ms {
		t.Fatalf("implausible percentiles: %+v", a)
	}
	if b.Throttled == 0 || b.OK != 0 {
		t.Fatalf("throttled tenant outcome %+v, want only 429s", b)
	}
	if err := checkLoadGates(rep, true, 0); err != nil {
		t.Fatalf("stub soak tripped the 5xx gate: %v", err)
	}
}

// TestRunLoadCanceled: Ctrl-C mid-soak surfaces as context.Canceled, not a
// partial report.
func TestRunLoadCanceled(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	rep, err := runLoad(ctx, loadOpts{
		Base:     srv.URL,
		Duration: 30 * time.Second,
		Rate:     50,
		Clients:  2,
		Tenants:  []loadTenant{{name: "anonymous"}},
		Seed:     1,
	}, os.Stderr)
	if err != context.Canceled || rep != nil {
		t.Fatalf("canceled soak = (%+v, %v), want (nil, context.Canceled)", rep, err)
	}
}

func TestRunLoadRejectsBadRate(t *testing.T) {
	if _, err := runLoad(context.Background(), loadOpts{Base: "http://x", Rate: 0,
		Tenants: []loadTenant{{name: "anonymous"}}}, os.Stderr); err == nil {
		t.Fatal("zero rate accepted")
	}
}

// TestLoadSeedsDisjoint: request configs derive their seed from -seed and
// the request index, so two soaks with different -seed values against one
// daemon share no config hash — the second is not served from cache — and
// one soak never repeats a config.
func TestLoadSeedsDisjoint(t *testing.T) {
	hashes := func(seed uint64) map[string]bool {
		out := map[string]bool{}
		for n := int64(1); n <= 200; n++ {
			var req service.RunRequest
			if err := json.Unmarshal([]byte(loadRunBody(seed, n)), &req); err != nil {
				t.Fatal(err)
			}
			cfg, err := req.Config.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			h, _, err := service.Hash(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out[h] = true
		}
		if len(out) != 200 {
			t.Fatalf("seed %d: %d distinct configs in 200 requests", seed, len(out))
		}
		return out
	}
	a, b := hashes(1), hashes(2)
	for h := range a {
		if b[h] {
			t.Fatalf("-seed 1 and -seed 2 share config hash %s", h)
		}
	}
}
