package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metric
// catalogs in main.go naming the same metrics with the same units.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []metric, catalog map[string]string) {
		seen := map[string]bool{}
		for _, m := range listed {
			if unit, ok := catalog[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %s (%s) is not in the catalog with that unit (%q)", kind, m.Name, m.Unit, unit)
			}
			seen[m.Name] = true
		}
		for name := range catalog {
			if !seen[name] {
				t.Errorf("%s metric %s is missing from BENCHMARK.json", kind, name)
			}
		}
	}
	check("end-to-end", b.EndToEnd, endToEnd)
	check("per-layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
}
