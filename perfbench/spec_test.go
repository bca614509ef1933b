package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the workloads and metrics this program declares and reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d declared", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, declared %q: %q", i, f.Workloads[i], w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d declared", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		g := f.EndToEnd[i]
		if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, declared %+v", i, g, m)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d declared", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		g := f.PerLayer[i]
		if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, declared %+v", i, g, m)
		}
		if m.module == "" || m.moves == "" || m.on == "" {
			t.Errorf("per-layer metric %s lacks its module or end-to-end mapping", m.name)
		}
	}
}
