package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// tinySizes shrink every workload so all four, traced and untraced, run
// in a few seconds.
var tinySizes = sizes{
	rate: 200, openShare: 0.5,
	phoneRows: 400, appendRows: 40,
	bulkSmall: 2000, bulkLarge: 20000,
	passes: 1, setups: 1,
	replayReqs: 50, replayBodies: 2, replayPasses: 1,
}

// TestWorkloadsSmoke runs every workload with tracing off and on and
// checks that each prints exactly the metrics BENCHMARK.json lists, with
// their units, and that every output passed the oracle. runOnce itself
// fails if the generator opened more connections than it has workers.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/clxd", "./cmd/clxproxy")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			cfg := &config{seed: 3, seconds: 600 * time.Millisecond, trace: trace, bin: bin,
				work: t.TempDir(), sizes: tinySizes,
				traceOut: filepath.Join(t.TempDir(), "trace.json")}
			res, _, err := runOnce(cfg, w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}
