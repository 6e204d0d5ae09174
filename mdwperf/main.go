// Command mdwperf is the repository benchmark. It runs one named workload at
// a seed, measures it for a fixed time, checks the program's outputs, and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// An untraced run (-trace 0) reports the end-to-end metrics, a traced run
// (-trace 1) the per-layer ones. See README.md for the workloads, the metric
// definitions and which layer metric should move which end-to-end metric.
//
// Usage, from the repository root:
//
//	bash mdwperf/run.sh --workload sweep --seed 1 --seconds 25 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"sweep":         runSweep,
	"service-cold":  func(r *run) error { return runService(r, serviceCold) },
	"service-warm":  func(r *run) error { return runService(r, serviceWarm) },
	"cluster-sweep": runClusterSweep,
}

// run is one benchmark invocation: its parameters and what it measured.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	procs    int
	dir      string // scratch directory inside the checkout, removed at exit

	metrics   map[string]float64
	samples   map[string]int // sample count behind a metric, where it has one
	attempted int64
	failed    int64
	// failedTags holds the sweep points that failed. A sweep run repeats
	// the suite for timing, and a point counts once however many
	// repetitions got it wrong, so failed does not depend on how many
	// repetitions fit in the run.
	failedTags map[string]bool
	// problems lists every output check that failed; known lists surfaced
	// defects that are counted in failed but do not make the run incorrect.
	problems []string
	known    []string
	notes    []string
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }
func (r *run) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}
func (r *run) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }
func (r *run) failPoint(tag string)         { r.failedTags[tag] = true }

// failures is the result's failed count.
func (r *run) failures() int64 { return r.failed + int64(len(r.failedTags)) }

// budget returns the share f of the run's measuring time.
func (r *run) budget(f float64) time.Duration { return time.Duration(f * float64(r.seconds)) }

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("mdwperf", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload: sweep, service-cold, service-warm or cluster-sweep")
	seed := fl.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fl.Int("seconds", 25, "measuring time of one run")
	trace := fl.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "mdwperf: need -workload (sweep, service-cold, service-warm, cluster-sweep), -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "mdwperf:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-*")
	if err != nil {
		fmt.Fprintln(stderr, "mdwperf:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, procs: procs, dir: dir,
		metrics: map[string]float64{}, samples: map[string]int{}, failedTags: map[string]bool{},
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(stderr, "mdwperf: %s: %v\n", r.workload, err)
		return 1
	}
	if err := report(r, stdout); err != nil {
		fmt.Fprintln(stderr, "mdwperf:", err)
		return 1
	}
	return 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// record is the self-describing line printed before the result: where and
// on what the numbers were measured, and the layer-metric tags.
type record struct {
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Traced    bool           `json:"traced"`
	Machine   fingerprint    `json:"machine"`
	Commit    string         `json:"commit"`
	SourceSHA string         `json:"source_sha256"`
	Samples   map[string]int `json:"samples,omitempty"`
	// Extra holds what the run measured beyond the metrics of its result
	// line, such as the wall-clock figures of an untraced sweep.
	Extra       map[string]float64 `json:"extra,omitempty"`
	Moves       map[string]string  `json:"moves,omitempty"`
	Problems    []string           `json:"problems,omitempty"`
	KnownDefect []string           `json:"known_defects,omitempty"`
	Notes       []string           `json:"notes,omitempty"`
}

// report prints the metrics table, the record line and, last, the result.
func report(r *run, w io.Writer) error {
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failures(),
		Metrics:   map[string]metricOut{},
	}
	rec := record{
		Workload: r.workload, Seed: r.seed, Seconds: r.seconds.Seconds(), Traced: r.traced,
		Machine: machine(r.procs), Commit: commit(), SourceSHA: sourceDigest("."),
		Samples: r.samples, Problems: r.problems, KnownDefect: r.known, Notes: r.notes,
	}
	if r.traced {
		rec.Moves = map[string]string{}
		for _, m := range layerMetrics {
			v, ok := r.metrics[m.name]
			on := m.on
			if on == "" {
				on = r.workload
			}
			tag := m.moves + " on " + on
			if !ok {
				// The layer does not run in this workload.
				v, tag = 0, "n/a on "+r.workload+"; "+tag
			}
			res.Metrics[m.name] = metricOut{v, m.unit}
			rec.Moves[m.name] = tag
			fmt.Fprintf(w, "%-32s %16.6g %-7s -> %s\n", m.name, v, m.unit, tag)
		}
	} else {
		for _, m := range endToEndMetrics {
			v, ok := r.metrics[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = metricOut{v, m.unit}
			fmt.Fprintf(w, "%-18s %16.6g %s\n", m.name, v, m.unit)
		}
	}
	for name, v := range r.metrics {
		if _, ok := res.Metrics[name]; !ok {
			if rec.Extra == nil {
				rec.Extra = map[string]float64{}
			}
			rec.Extra[name] = v
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
	for _, k := range r.known {
		fmt.Fprintln(w, "KNOWN DEFECT:", k)
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not a number", name)
		}
	}
	for _, x := range []any{rec, res} {
		b, err := json.Marshal(x)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

// fingerprint identifies the machine a record was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
}

func machine(procs int) fingerprint {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fingerprint{CPU: cpu, NumCPU: procs, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
}

// commit returns the git revision the binary was built from, as stamped by
// the go command when it builds inside a git work tree ("unknown" in an
// exported tree; the source digest identifies the code there).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes the Go sources and module files under root (skipping
// hidden and build directories), so records from trees without git history
// still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
