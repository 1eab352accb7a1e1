package main

import (
	"encoding/json"
	"os"
	"regexp"
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
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the program must name the same workloads and the
// same metrics with the same units, in the same order.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, file []benchmarkMetric, prog []metricDef, bounded bool) {
		if len(file) != len(prog) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(prog))
		}
		for i, m := range file {
			if m.Name != prog[i].name || m.Unit != prog[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in the program", kind, i, m.Name, m.Unit, prog[i].name, prog[i].unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name or unit: %s (%s)", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Unit != "s" || b.EndToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s", b.EndToEnd[0])
	}
	for _, m := range b.EndToEnd[1:] {
		if *m.Bound > *b.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}
