package mdl_test

import (
	"reflect"
	"testing"

	"clx/internal/align"
	"clx/internal/benchsuite"
	"clx/internal/cluster"
	"clx/internal/mdl"
	"clx/internal/simuser"
	"clx/internal/synth"
)

// TopK must return exactly what the reference enumeration returns for
// every source pattern the synthesizer would rank: every hierarchy node of
// every suite task that validates against a target the simulated user
// selects, at k = 1, the default K and the pool synthesis asks for.
func TestTopKMatchesReferenceSuite(t *testing.T) {
	tasks := benchsuite.Tasks()
	if len(tasks) < 47 {
		t.Fatalf("benchmark suite has %d tasks, want >= 47", len(tasks))
	}
	checked, plans := 0, 0
	for _, task := range tasks {
		h := cluster.Profile(task.Inputs, cluster.DefaultOptions())
		for _, target := range simuser.SelectTargets(task.Inputs, task.Outputs) {
			for _, level := range h.Levels {
				for _, n := range level {
					if !synth.Validate(n.Pattern, target, false) {
						continue
					}
					d := align.Align(target, n.Pattern)
					for _, k := range []int{1, 12, 96} {
						got, want := mdl.TopK(d, n.Pattern, k), mdl.ReferenceTopK(d, n.Pattern, k)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: source %s, target %s, k=%d:\n got %v\nwant %v",
								task.Name, n.Pattern, target, k, got, want)
						}
						plans += len(got)
					}
					checked++
				}
			}
		}
	}
	if checked < 200 || plans < 1000 {
		t.Errorf("checked %d sources (%d plans), want the whole suite (>= 200 sources)", checked, plans)
	}
}
