package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mdworm/internal/service"
)

func TestExpandGroups(t *testing.T) {
	all, err := expand("all")
	if err != nil || len(all) < 16 {
		t.Fatalf("all: %v %v", all, err)
	}
	paper, err := expand("paper")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range paper {
		if id[0] != 'e' {
			t.Fatalf("paper group contains %q", id)
		}
	}
	abl, err := expand("ablation")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range abl {
		if id[0] != 'a' {
			t.Fatalf("ablation group contains %q", id)
		}
	}
	coll, err := expand("collective")
	if err != nil {
		t.Fatal(err)
	}
	if len(coll) != 6 {
		t.Fatalf("collective group %v, want c1..c6", coll)
	}
	for _, id := range coll {
		if id[0] != 'c' {
			t.Fatalf("collective group contains %q", id)
		}
	}
	if len(paper)+len(abl)+len(coll) != len(all) {
		t.Fatalf("groups do not partition: %d + %d + %d != %d",
			len(paper), len(abl), len(coll), len(all))
	}
}

func TestBatchFamily(t *testing.T) {
	cases := []struct {
		ids  []string
		want string
	}{
		{[]string{"e1", "e3"}, "paper"},
		{[]string{"a8"}, "ablation"},
		{[]string{"c1", "c4", "c6"}, "collective"},
		{[]string{"e1", "c1"}, "mixed"},
		{nil, ""},
	}
	for _, c := range cases {
		if got := batchFamily(c.ids); got != c.want {
			t.Errorf("batchFamily(%v) = %q, want %q", c.ids, got, c.want)
		}
	}
}

func TestExpandExplicitList(t *testing.T) {
	got, err := expand("e1, E3 ,a8")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"e1", "e3", "a8"}) {
		t.Fatalf("got %v", got)
	}
}

func TestExpandErrors(t *testing.T) {
	if _, err := expand("nope"); err == nil {
		t.Error("unknown id accepted")
	}
	if _, err := expand(" , "); err == nil {
		t.Error("empty list accepted")
	}
}

// TestBenchHistoryAppend: -bench-out accumulates an array, one entry per run.
func TestBenchHistoryAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	for i := 1; i <= 3; i++ {
		n, err := appendBenchHistory(path, benchReport{Timestamp: "t", Points: i})
		if err != nil {
			t.Fatal(err)
		}
		if n != i {
			t.Fatalf("run %d recorded as %d", i, n)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hist []benchReport
	if err := json.Unmarshal(data, &hist); err != nil {
		t.Fatalf("history not a JSON array: %v", err)
	}
	if len(hist) != 3 || hist[2].Points != 3 {
		t.Fatalf("history %+v", hist)
	}
}

// TestBenchHistoryMigratesLegacy: a pre-history single-object file becomes
// the first entry of the array instead of being overwritten, and entries
// written before the family field stay decodable next to ones that have it.
func TestBenchHistoryMigratesLegacy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	legacy := `{"quick":false,"seed":1,"points":314,"wall_seconds":83.0}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := appendBenchHistory(path, benchReport{Timestamp: "now", Points: 7, Family: "collective"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recorded %d runs, want 2", n)
	}
	data, _ := os.ReadFile(path)
	var hist []benchReport
	if err := json.Unmarshal(data, &hist); err != nil {
		t.Fatal(err)
	}
	if hist[0].Points != 314 || hist[1].Points != 7 || hist[1].Timestamp != "now" {
		t.Fatalf("history %+v", hist)
	}
	if hist[0].Family != "" || hist[1].Family != "collective" {
		t.Fatalf("family fields %q, %q; want \"\", \"collective\"", hist[0].Family, hist[1].Family)
	}
	if strings.Contains(string(data), `"family":""`) {
		t.Fatalf("pre-family entry grew an empty family field:\n%s", data)
	}
}

func TestBenchHistoryRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := appendBenchHistory(path, benchReport{}); err == nil {
		t.Fatal("garbage file accepted")
	}
}

// TestDaemonModeMatchesLocal: the same experiment through -daemon renders
// the identical table to an in-process run (daemon-side determinism plus
// pass-through rendering).
func TestDaemonModeMatchesLocal(t *testing.T) {
	srv, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var local, remote, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "a8", "-quick"}, &local, &stderr); code != 0 {
		t.Fatalf("local: exit %d\n%s", code, stderr.String())
	}
	stderr.Reset()
	if code := run(context.Background(), []string{"-exp", "a8", "-quick", "-daemon", ts.URL}, &remote, &stderr); code != 0 {
		t.Fatalf("daemon: exit %d\n%s", code, stderr.String())
	}
	if local.String() != remote.String() {
		t.Fatalf("daemon output differs from local:\n--- local ---\n%s\n--- daemon ---\n%s",
			local.String(), remote.String())
	}
}

// TestDaemonModeBenchOut: the done event's batch cost feeds -bench-out.
func TestDaemonModeBenchOut(t *testing.T) {
	srv, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	path := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(),
		[]string{"-exp", "a8", "-quick", "-daemon", ts.URL, "-bench-out", path, "-v"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var hist []benchReport
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || hist[0].Points == 0 || hist[0].SimulatedCycle == 0 || hist[0].Timestamp == "" {
		t.Fatalf("history %+v", hist)
	}
	if hist[0].Family != "ablation" {
		t.Fatalf("family %q, want ablation", hist[0].Family)
	}
	if bytes.Contains(data, []byte(`"runs"`)) {
		t.Fatalf("daemon batch recorded a run count it cannot know:\n%s", data)
	}
	if !strings.Contains(stderr.String(), "x=") {
		t.Fatalf("-v produced no point lines:\n%s", stderr.String())
	}
}

// TestBenchOutRecordsRuns: an in-process batch records how many simulations
// it executed next to its planned points — e2 reads e1's runs, so e1,e2
// plans 18 points and simulates 9 — and prints both on its summary line.
func TestBenchOutRecordsRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(),
		[]string{"-exp", "e1,e2", "-quick", "-workers", "2", "-bench-out", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hist []benchReport
	if err := json.Unmarshal(data, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || hist[0].Points != 18 || hist[0].Runs != 9 {
		t.Fatalf("history %+v, want 18 points in 9 runs", hist)
	}
	if !strings.Contains(stderr.String(), "18 points in 9 runs") {
		t.Fatalf("summary line lacks the run count:\n%s", stderr.String())
	}
}

func TestDaemonModeErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(),
		[]string{"-daemon", "http://x", "-format", "csv", "-exp", "a8"}, &stdout, &stderr); code != 2 {
		t.Fatalf("csv over daemon: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run(context.Background(),
		[]string{"-daemon", "http://127.0.0.1:1", "-exp", "a8", "-quick"}, &stdout, &stderr); code != 1 {
		t.Fatalf("unreachable daemon: exit %d, want 1\n%s", code, stderr.String())
	}
}

// TestCanceledSweep: a pre-canceled context (Ctrl-C) exits 130 with no
// partial tables, both locally and through a daemon.
func TestCanceledSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{"-exp", "a8", "-quick"}, &stdout, &stderr); code != 130 {
		t.Fatalf("local: exit %d, want 130\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("partial tables printed:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Fatalf("stderr: %s", stderr.String())
	}

	srv, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	stdout.Reset()
	stderr.Reset()
	if code := run(ctx, []string{"-exp", "a8", "-quick", "-daemon", ts.URL}, &stdout, &stderr); code != 130 {
		t.Fatalf("daemon: exit %d, want 130\n%s", code, stderr.String())
	}
}
