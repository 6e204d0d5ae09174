package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"

	"mdworm/internal/core"
	"mdworm/internal/experiments"
	"mdworm/internal/service"
	"mdworm/internal/stats"
)

// streamLines posts one quick experiment (seed 1) and returns its point and
// table lines exactly as they were streamed.
func streamLines(t *testing.T, base, id string) []string {
	t.Helper()
	resp, err := http.Post(base+"/v1/experiment", "application/json",
		strings.NewReader(`{"id":"`+id+`","quick":true,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var lines []string
	for sc.Scan() {
		var ev service.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "point", "table":
			lines = append(lines, sc.Text())
		case "error":
			t.Fatalf("%s failed: %s", id, ev.Err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// runError posts a raw config and returns the status and structured error.
func runError(t *testing.T, base string, cfg core.Config) (int, string, string) {
	t.Helper()
	body, err := json.Marshal(service.RunRequest{RawConfig: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	resp, b := postRun(t, base, string(body))
	var e struct {
		Error struct{ Code, Message string } `json:"error"`
	}
	json.Unmarshal(b, &e)
	return resp.StatusCode, e.Error.Code, e.Error.Message
}

// TestClusterDeadlockMatchesSingleNode: a10's synchronous-replication points
// deadlock by design. Through a coordinator they must stream exactly what a
// single node streams — the engine's own error text and the cycle the
// watchdog stopped at, and the "DEADLOCK at cycle N" table row — and a
// deadlocking /v1/run must get the same status, code and message in both
// modes.
func TestClusterDeadlockMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("two quick a10 sweeps")
	}
	_, single := startWorker(t, service.Config{Workers: 2})
	_, w1 := startWorker(t, service.Config{Workers: 2})
	_, w2 := startWorker(t, service.Config{Workers: 2})
	_, coord := startCoordinator(t, Config{Peers: []string{w1.URL, w2.URL}})

	want := streamLines(t, single.URL, "a10")
	got := streamLines(t, coord.URL, "a10")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("coordinator a10 stream differs from single node:\n--- coordinator ---\n%s\n--- single ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if !strings.Contains(strings.Join(want, "\n"), "DEADLOCK at cycle") {
		t.Fatal("a10 reference stream holds no deadlocked point; the test checks nothing")
	}

	// The configs of a10's points, collected without simulating them.
	var mu sync.Mutex
	cfgs := map[string]core.Config{}
	collect := experiments.Options{Quick: true, Seed: 1,
		Resolver: func(cfg core.Config, tag string) (stats.Results, int64, error) {
			mu.Lock()
			defer mu.Unlock()
			cfgs[tag] = cfg
			return stats.Results{}, 0, errors.New("collected")
		}}
	tables, err := experiments.Plan([]string{"a10"}, collect)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Finish([]string{"a10"}, tables, collect); err != nil {
		t.Fatal(err)
	}
	deadlocked := 0
	for _, line := range want {
		var ev service.StreamEvent
		json.Unmarshal([]byte(line), &ev)
		if ev.Type != "point" || ev.Err == "" {
			continue
		}
		deadlocked++
		cfg, ok := cfgs[ev.Tag]
		if !ok {
			t.Fatalf("no config collected for %s", ev.Tag)
		}
		ws, wc, wm := runError(t, single.URL, cfg)
		gs, gc, gm := runError(t, coord.URL, cfg)
		if wc != "deadlock" {
			t.Fatalf("%s: single node answered %d %q %q, want a deadlock", ev.Tag, ws, wc, wm)
		}
		if gs != ws || gc != wc || gm != wm {
			t.Errorf("%s: coordinator answered %d %q %q, single node %d %q %q", ev.Tag, gs, gc, gm, ws, wc, wm)
		}
		if !strings.Contains(ev.Err, wm) {
			t.Errorf("%s: stream error %q does not carry the run's message %q", ev.Tag, ev.Err, wm)
		}
	}
	if deadlocked == 0 {
		t.Fatal("no deadlocked a10 point")
	}
}
