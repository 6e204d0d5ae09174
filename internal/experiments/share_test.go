package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mdworm/internal/collective"
	"mdworm/internal/core"
	"mdworm/internal/stats"
)

// sharedPlan builds one table whose points repeat configurations on
// purpose: a central-buffer and an input-buffer load point, a collective,
// a synchronous-replication point that deadlocks, and a config that does
// not canonicalize — each planned twice or more under distinct tags.
func sharedPlan() (*Table, map[string]core.Config) {
	o := Options{Quick: true, Seed: 3}
	small := func(c Contender, load float64) core.Config {
		cfg := baseConfig(o)
		cfg.Stages = 2
		multipleMulticastShape(&cfg)
		cfg.Traffic.Degree = 4
		c.Apply(&cfg)
		cfg.Traffic.OpRate = cfg.Traffic.RateForLoad(load)
		return cfg
	}
	cb := small(CBHW, 0.2)
	ib := small(IBHW, 0.2)
	coll := collConfig(o, collective.Broadcast)
	coll.Stages = 2
	CBHW.Apply(&coll)
	stuck := baseConfig(o)
	multipleMulticastShape(&stuck)
	IBHW.Apply(&stuck)
	stuck.IB.SyncReplication = true
	stuck.WatchdogLimit = 20_000
	stuck.Traffic.OpRate = stuck.Traffic.RateForLoad(0.4)
	invalid := cb
	invalid.Stages = -1

	plan := []struct {
		tag string
		cfg core.Config
	}{
		{"cb/a", cb}, {"ib/a", ib}, {"coll/a", coll}, {"stuck/a", stuck},
		{"cb/b", cb}, {"invalid/a", invalid}, {"coll/b", coll},
		{"ib/b", ib}, {"stuck/b", stuck}, {"invalid/b", invalid}, {"cb/c", cb},
	}
	cfgs := map[string]core.Config{}
	s := Series{Name: "mixed"}
	for i, p := range plan {
		cfgs[p.tag] = p.cfg
		s.Points = append(s.Points, runPoint(p.cfg, float64(i), p.tag))
	}
	return &Table{ID: "T", Metrics: []Metric{MetricMcastLatency}, Series: []Series{s}}, cfgs
}

// TestSharedPointsMatchIndependentRuns checks sharing against an independent
// oracle: every point of a plan with repeated configurations ends up with
// exactly the results, cycles and error a fresh simulator of its own config
// produces, errors name the point's own tag, twins share no memory, and the
// sweep executes one run per distinct configuration.
func TestSharedPointsMatchIndependentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a deadlocking 64-node sweep point")
	}
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tab, cfgs := sharedPlan()
			var (
				mu     sync.Mutex
				events = map[string]PointEvent{}
			)
			o := Options{Workers: workers, OnPoint: func(ev PointEvent) {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := events[ev.Tag]; dup {
					t.Errorf("second event for %s", ev.Tag)
				}
				events[ev.Tag] = ev
			}}
			st := resolve([]*Table{tab}, o)

			distinct := map[string]bool{}
			wantRuns := 0
			points := tab.Series[0].Points
			for _, p := range points {
				cfg := cfgs[p.Tag]
				if addr, _, err := core.ContentAddress(cfg); err == nil {
					if !distinct[addr] {
						wantRuns++
					}
					distinct[addr] = true
				} else {
					wantRuns++ // never shared
				}

				var (
					want   stats.Results
					cycles int64
					err    error
				)
				sim, err := core.New(cfg)
				if err == nil {
					want, err = sim.Run()
					cycles = sim.Now()
				}
				if err != nil {
					wantErr := p.Tag + ": " + err.Error()
					if p.Err == nil || p.Err.Error() != wantErr {
						t.Errorf("%s: Err = %v, want %q", p.Tag, p.Err, wantErr)
					}
					if ev := events[p.Tag]; ev.Err == nil || ev.Err.Error() != wantErr {
						t.Errorf("%s: event Err = %v, want %q", p.Tag, ev.Err, wantErr)
					}
				} else if p.Err != nil {
					t.Errorf("%s: unexpected error %v", p.Tag, p.Err)
				} else if !reflect.DeepEqual(p.Results, want) {
					t.Errorf("%s: shared results differ from an independent run", p.Tag)
				}
				if p.cycles != cycles || events[p.Tag].Cycles != cycles {
					t.Errorf("%s: cycles = %d (event %d), independent run %d", p.Tag, p.cycles, events[p.Tag].Cycles, cycles)
				}
				if p.pending != nil {
					t.Errorf("%s: left pending", p.Tag)
				}
			}
			if !strings.HasPrefix(points[3].Err.Error(), "stuck/a: ") {
				t.Fatalf("the deadlocking config did not fail: %v", points[3].Err)
			}
			if st.Runs != wantRuns || st.Runs != 6 {
				t.Errorf("Runs = %d, want %d (one per distinct config, 6)", st.Runs, wantRuns)
			}
			if st.Points != len(points) || len(events) != len(points) {
				t.Errorf("Points = %d, events = %d, planned %d", st.Points, len(events), len(points))
			}

			// Twins own their results: editing one leaves the other intact.
			a, b := &points[2].Results, &points[6].Results
			if a.Collective == nil || len(a.Collective.Phases) == 0 {
				t.Fatal("collective point has no phase summaries")
			}
			before := b.Collective.Phases[0]
			a.Collective.Phases[0].Mean = -1
			a.Collective.Kind = "edited"
			if b.Collective.Phases[0] != before || b.Collective.Kind == "edited" {
				t.Error("editing one twin's collective results changed the other's")
			}
		})
	}
}

// TestResolverSeesEachConfigOnce: e2 plans the same runs as e1 (two views of
// one set of simulations), so a Resolver over both sees each configuration
// once, under the first planned tag, while all 18 points stream and render
// exactly as a local resolve does.
func TestResolverSeesEachConfigOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs e1's quick points")
	}
	ids := []string{"e1", "e2"}
	base := Options{Quick: true, Seed: 1, Workers: 2}
	local, _, err := RunIDs(ids, base)
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu     sync.Mutex
		calls  []string
		events []string
	)
	o := base
	o.OnPoint = func(ev PointEvent) { events = append(events, ev.Tag) }
	o.Resolver = func(cfg core.Config, tag string) (stats.Results, int64, error) {
		mu.Lock()
		calls = append(calls, tag)
		mu.Unlock()
		sim, err := core.New(cfg)
		if err != nil {
			return stats.Results{}, 0, err
		}
		res, err := sim.Run()
		return res, sim.Now(), err
	}
	tables, err := Plan(ids, o)
	if err != nil {
		t.Fatal(err)
	}
	tags := PlannedTags(tables)
	st, err := Finish(ids, tables, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tags) != 18 || len(events) != 18 || st.Points != 18 {
		t.Fatalf("planned %d tags, streamed %d events, resolved %d points; want 18 each", len(tags), len(events), st.Points)
	}
	if len(calls) != 9 || st.Runs != 9 {
		t.Fatalf("Resolver called %d times (Runs %d), want 9", len(calls), st.Runs)
	}
	first := map[string]bool{}
	for _, tag := range tags[:9] {
		first[tag] = true
	}
	for _, tag := range calls {
		if !first[tag] {
			t.Errorf("Resolver called with %s, not the first planned tag of its config", tag)
		}
		delete(first, tag)
	}
	for i := range tables {
		var got, want bytes.Buffer
		tables[i].Format(&got)
		local[i].Format(&want)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: resolver-backed table differs from local:\n--- resolver ---\n%s\n--- local ---\n%s",
				ids[i], got.Bytes(), want.Bytes())
		}
	}
}

// TestQuickSuiteRuns pins the sharing of the quick suite: 157 planned
// points are 100 distinct standard configurations plus 30 custom-harness
// points, so the Resolver is called 100 times and 130 runs execute.
func TestQuickSuiteRuns(t *testing.T) {
	var (
		mu    sync.Mutex
		calls int
	)
	o := Options{Quick: true, Seed: 1, Workers: 2}
	o.Resolver = func(cfg core.Config, tag string) (stats.Results, int64, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return stats.Results{Nodes: cfg.N()}, 1, nil
	}
	ids := IDs()
	tables, err := Plan(ids, o)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Finish(ids, tables, o)
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 157 || st.Runs != 130 || calls != 100 {
		t.Fatalf("Points %d, Runs %d, Resolver calls %d; want 157, 130, 100", st.Points, st.Runs, calls)
	}
}
