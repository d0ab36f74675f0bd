package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestMetricNames(t *testing.T) {
	if err := checkCatalog(catalog); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "lat-µs", strings.Repeat("a", 65)} {
		if checkCatalog([]metricDef{{name: bad, unit: "ms", better: "lower"}}) == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, good := range []string{"a", "9x", "lb.self_ms", "go.alloc_kb_per_op", "a-b.c_d", strings.Repeat("a", 64)} {
		if err := checkCatalog([]metricDef{{name: good, unit: "1/s", better: "higher"}}); err != nil {
			t.Errorf("name %q refused: %v", good, err)
		}
	}
	dup := []metricDef{{name: "x", unit: "s", better: "lower"}, {name: "x", unit: "s", better: "lower"}}
	if checkCatalog(dup) == nil {
		t.Error("duplicate name accepted")
	}
	if checkCatalog([]metricDef{{name: "x", unit: "m s", better: "lower"}}) == nil {
		t.Error("unit with a space accepted")
	}
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// BENCHMARK.json and the catalog the program reports from must agree.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	slices.Sort(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []benchMetric `json:"end_to_end"`
		PerLayer  []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: unknown or bad why", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
	listed := map[string]benchMetric{}
	for _, m := range b.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		listed[m.Name] = m
	}
	for _, m := range b.PerLayer {
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
		listed[m.Name] = m
	}
	if s := listed["setup_s"]; s.Bound == nil || s.Unit != "s" || s.Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	} else {
		for _, m := range b.EndToEnd {
			if *m.Bound > *s.Bound {
				t.Errorf("%s has a larger bound than setup_s", m.Name)
			}
		}
	}
	if len(listed) != len(b.EndToEnd)+len(b.PerLayer) || len(listed) != len(catalog) {
		t.Fatalf("BENCHMARK.json lists %d distinct metrics, the catalog has %d", len(listed), len(catalog))
	}
	for _, d := range catalog {
		m, ok := listed[d.name]
		if !ok || m.Unit != d.unit || m.Better != d.better || (m.Bound == nil) != d.layer {
			t.Errorf("%s: BENCHMARK.json has %+v, catalog has unit %s better %s layer %v", d.name, m, d.unit, d.better, d.layer)
		}
	}
}
