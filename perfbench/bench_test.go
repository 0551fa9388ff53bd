package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// The self-test runs every workload on a tiny draw, untraced and
// traced, and checks that each emits exactly the metrics BENCHMARK.json
// declares for it, with their units; and that a corrupted reference
// hash makes the correctness gate fail the run.
//
//	cd perfbench && go test .

type spec struct {
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

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, workload string, trace bool, r refs) *report {
	t.Helper()
	rep, _, err := run(options{workload: workload, seed: 7, seconds: time.Second, trace: trace, workdir: t.TempDir(), tiny: true}, r)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return rep
}

func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	s := readSpec(t)
	r, err := readRefs("refs.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			rep := tinyRun(t, w, trace, r)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace %v: correct %v, %d of %d failed", w, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			for name, unit := range want {
				m, ok := rep.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace %v: metric %s missing", w, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace %v: metric %s has unit %q, BENCHMARK.json says %q", w, trace, name, m.Unit, unit)
				}
			}
			for name := range rep.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace %v: metric %s is not declared in BENCHMARK.json", w, trace, name)
				}
			}
		}
	}
}

func TestCorruptedReferenceFailsTheGate(t *testing.T) {
	r, err := readRefs("refs.json")
	if err != nil {
		t.Fatal(err)
	}
	bad := refs{}
	for k, v := range r {
		bad[k] = v
	}
	name := coldLocalFuncs[0]
	e := bad[name]
	e.Default = strings.Repeat("0", len(e.Default))
	bad[name] = e
	rep := tinyRun(t, "cold-local", false, bad)
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("corrupted reference for %s passed the gate: correct %v, %d of %d failed", name, rep.Correct, rep.Failed, rep.Attempted)
	}
}
