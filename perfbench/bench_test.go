package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// declares exactly the metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that every metric is reported with its unit and that no op
// failed.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := bench(opts{workload: name, seed: 7, traced: traced, tiny: true}, io.Discard)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1000 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Errorf("traced=%v: metric %s missing or unit %q != %q", traced, d.Name, v.Unit, d.Unit)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
					}
				}
				if !traced {
					continue
				}
				elided := res.Metrics["nativempi.copy.elided_ratio"].Value
				switch name {
				case "p2p-java":
					if elided <= 0 {
						t.Errorf("p2p-java elided_ratio = %v, want > 0 (zero-copy datapath)", elided)
					}
				case "lossy-8":
					if elided != 0 {
						t.Errorf("lossy-8 elided_ratio = %v, want 0 (framed fallback)", elided)
					}
				}
			}
		})
	}
}
