package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
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

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the tables
// the benchmark prints from in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: file %+v, table %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
	}

	var gated []metricSpec
	for _, m := range endToEnd {
		if m.gated() {
			gated = append(gated, m)
		}
	}
	if len(bf.EndToEnd) != len(gated) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d gated in the table", len(bf.EndToEnd), len(gated))
	}
	for i, m := range gated {
		f := bf.EndToEnd[i]
		checkName(f.Name)
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || f.Bound != m.Bound || !unitRE.MatchString(f.Unit) || f.Bound > 0.25 {
			t.Errorf("end-to-end %d: file %+v, table %+v", i, f, m)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		f := bf.PerLayer[i]
		checkName(f.Name)
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || !unitRE.MatchString(f.Unit) {
			t.Errorf("per-layer %d: file %+v, table %+v", i, f, m)
		}
	}
	if !seen["setup_s"] {
		t.Error("BENCHMARK.json has no setup_s metric")
	}
}
