package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCatalogueMatchesBenchmarkJSON keeps the repository's BENCHMARK.json
// and the metrics this program reports in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	// The program may run more workloads than BENCHMARK.json gates on.
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run by the program", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		if got := doc.EndToEnd[i]; got != (metric{m.name, m.unit, m.better}) {
			t.Errorf("end_to_end[%d] = %+v, program reports %+v", i, got, m)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := doc.PerLayer[i]; got != (metric{m.name, m.unit, m.better}) {
			t.Errorf("per_layer[%d] = %+v, program reports %+v", i, got, m)
		}
	}
}
