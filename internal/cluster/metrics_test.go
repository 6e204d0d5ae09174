package cluster

import (
	"bufio"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mdworm/internal/service"
)

// Prometheus text exposition 0.0.4: every non-comment line must be
// `name{label="value",...} float` with legal metric and label names.
var (
	promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|\+Inf|-Inf)$`)
	promLabels = regexp.MustCompile(`^\{([a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\}$`)
)

// TestClusterMetricsFormat parses every line of the coordinator's /metrics
// and checks the cluster gauges are present with the right values.
func TestClusterMetricsFormat(t *testing.T) {
	_, w1 := startWorker(t, service.Config{})
	c, coord := startCoordinator(t, Config{Peers: []string{w1.URL}})
	// One resolved shard gives the counters something to show.
	if resp, body := postRun(t, coord.URL, tinyRunBody(31)); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %s: %s", resp.Status, body)
	}
	_ = c

	resp, err := http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}

	values := map[string]float64{} // name or name{labels} -> value
	helped := map[string]bool{}
	histograms := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Errorf("malformed comment line %q", line)
				continue
			}
			helped[f[2]] = true
			if f[1] == "TYPE" && f[3] == "histogram" {
				histograms[f[2]] = true
			}
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		if m[2] != "" && !promLabels.MatchString(m[2]) {
			t.Errorf("malformed label set in %q", line)
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Errorf("bad value in %q: %v", line, err)
			continue
		}
		values[m[1]+m[2]] = v
		// Histograms declare the base name; samples append _bucket/_sum/_count.
		base := m[1]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if histograms[strings.TrimSuffix(m[1], suf)] {
				base = strings.TrimSuffix(m[1], suf)
			}
		}
		if !helped[base] {
			t.Errorf("sample %q has no preceding HELP/TYPE header", m[1])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	wantExact := map[string]float64{
		"mdwd_coordinator":            1,
		"mdwd_peers":                  1,
		"mdwd_peers_healthy":          1,
		"mdwd_shards_inflight":        0,
		"mdwd_shard_hedges_total":     0,
		"mdwd_shard_migrations_total": 0,
	}
	for name, want := range wantExact {
		got, ok := values[name]
		if !ok {
			t.Errorf("metric %s missing", name)
		} else if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	peerLabel := `{peer="` + w1.URL + `"}`
	if got, ok := values["mdwd_peer_healthy"+peerLabel]; !ok || got != 1 {
		t.Errorf("mdwd_peer_healthy%s = %v (present=%v), want 1", peerLabel, got, ok)
	}
	if got, ok := values["mdwd_peer_shards_dispatched"+peerLabel]; !ok || got < 1 {
		t.Errorf("mdwd_peer_shards_dispatched%s = %v (present=%v), want >= 1", peerLabel, got, ok)
	}
}
