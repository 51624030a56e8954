package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkDoc is the part of BENCHMARK.json the self-test checks against.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkDoc {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) == 0 || len(doc.EndToEnd) == 0 || len(doc.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json names no workloads or metrics")
	}
	return doc
}

func tinyRun(t *testing.T, workload string, trace, tamper bool) report {
	t.Helper()
	rep, err := run(options{
		workload: workload, seed: 3, seconds: 0.2, trace: trace,
		size: tinySize, workDir: t.TempDir(), tamper: tamper,
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%t: %v", workload, trace, err)
	}
	return rep
}

// TestEveryMetricEmitted runs every workload at tiny size, untraced and
// traced, and checks that each emits exactly the metrics BENCHMARK.json
// names for that mode, each with its declared unit, and that every check
// passes.
func TestEveryMetricEmitted(t *testing.T) {
	doc := loadBenchmark(t)
	for _, w := range doc.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range doc.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range doc.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			rep := tinyRun(t, w.Name, trace, false)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d", w.Name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			for name, unit := range want {
				got, ok := rep.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", w.Name, trace, name)
				case got.Unit != unit:
					t.Errorf("%s trace=%t: metric %s has unit %q, want %q", w.Name, trace, name, got.Unit, unit)
				}
			}
			for name := range rep.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%t: metric %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
		}
	}
}

// TestTamperedDigestFails corrupts each workload's reference outcome after
// set-up; the run must count the failures and report itself incorrect.
func TestTamperedDigestFails(t *testing.T) {
	for _, w := range loadBenchmark(t).Workloads {
		rep := tinyRun(t, w.Name, false, true)
		if rep.Correct || rep.Failed == 0 || rep.Failed > rep.Attempted {
			t.Errorf("%s: tampered run reported correct=%t failed=%d attempted=%d", w.Name, rep.Correct, rep.Failed, rep.Attempted)
		}
	}
}
