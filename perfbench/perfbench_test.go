package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run re-executes itself as the server or the broker.
func TestMain(m *testing.M) {
	if os.Getenv(envRole) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the tests compare with.
type benchmarkSpec struct {
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

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryWorkloadReportsEveryMetric makes a short untraced and traced
// run of each workload and checks that each reports every metric
// BENCHMARK.json names, with its unit, and no failed operation.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(config{workload: w.Name, seed: 7, seconds: 2, trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestWrongReplyIsCounted makes the server corrupt one reply and checks
// that the run reports exactly that one operation as failed.
func TestWrongReplyIsCounted(t *testing.T) {
	t.Setenv(envCorrupt, "3")
	res, err := run(config{workload: wlSyncSmall, seed: 7, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("corrupted reply: correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}
}
