// Determinism of the parallel pipeline: for every task of the 47-task
// benchmark suite and every worker count in {1, 2, 4, 8}, the full
// profile → synthesize → transform pipeline must produce output
// byte-identical to the serial (Workers=1) baseline — cluster order and
// hierarchy levels, plan ranking per source, transformed rows, and
// clean/unmatched/flagged index lists. This is the contract that lets
// Workers default to auto without perturbing anything the user verifies.
package clx_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	clx "clx"
	"clx/internal/benchsuite"
	"clx/internal/simuser"
	"clx/internal/stream"
)

// pipelineFingerprint renders everything user-visible about one session
// run — any parallel/serial divergence shows up as a text diff.
func pipelineFingerprint(inputs []string, targets []clx.Pattern, workers int) string {
	opts := clx.DefaultOptions()
	opts.Workers = workers
	sess := clx.NewSession(inputs, opts)

	var b strings.Builder
	b.WriteString("clusters:\n")
	for _, c := range sess.Clusters() {
		fmt.Fprintf(&b, "  %s count=%d sample=%q rows=%v\n", c.Pattern, c.Count, c.Sample, c.Rows)
	}
	for l := 0; l < sess.Levels(); l++ {
		fmt.Fprintf(&b, "level %d:\n", l)
		for _, c := range sess.Level(l) {
			fmt.Fprintf(&b, "  %s count=%d\n", c.Pattern, c.Count)
		}
	}
	for _, target := range targets {
		fmt.Fprintf(&b, "target %s\n", target)
		tr, err := sess.Label(target)
		if err != nil {
			fmt.Fprintf(&b, "  label error: %v\n", err)
			continue
		}
		b.WriteString(tr.Explain())
		for i := range tr.Sources() {
			fmt.Fprintf(&b, "  alternatives[%d]:\n", i)
			for _, alt := range tr.Alternatives(i) {
				fmt.Fprintf(&b, "    %s -> %q\n", alt.NLRegex(), alt.Replacement)
			}
		}
		out, flagged := tr.Run()
		fmt.Fprintf(&b, "  out=%q\n  flagged=%v clean=%v unmatched=%v\n",
			out, flagged, tr.Clean(), tr.Unmatched())
	}
	return b.String()
}

func TestParallelPipelineDeterminism(t *testing.T) {
	tasks := benchsuite.Tasks()
	if len(tasks) < 47 {
		t.Fatalf("benchmark suite has %d tasks, want >= 47", len(tasks))
	}
	for _, task := range tasks {
		task := task
		t.Run(task.Name, func(t *testing.T) {
			t.Parallel()
			targets := simuser.SelectTargets(task.Inputs, task.Outputs)
			serial := pipelineFingerprint(task.Inputs, targets, 1)
			for _, w := range []int{2, 4, 8} {
				got := pipelineFingerprint(task.Inputs, targets, w)
				if got != serial {
					t.Fatalf("workers=%d diverges from serial:\n%s", w, firstDiff(serial, got))
				}
			}
		})
	}
}

// TestDupHeavyProfileDeterminism stresses profiling on a dup-heavy column
// (every distinct value repeated many times) mixed with empties and
// multi-byte unicode rows, the shapes where value deduplication, count
// weighting, and literal-run tokenization all carry weight. The fingerprint must be byte-identical across worker
// counts, with per-row indices intact.
func TestDupHeavyProfileDeterminism(t *testing.T) {
	base := []string{
		"(734) 645-8397", "734-645-8397", "CPT-00350", "N/A", "",
		"café 12", "Dr. Eran Yahav", "日本語123", "\xff\xfe", "   ",
	}
	var inputs []string
	for i := 0; i < 40; i++ { // 400 rows, 10 distinct values
		inputs = append(inputs, base...)
	}
	targets := []clx.Pattern{clx.MustParsePattern("<D>3'-'<D>3'-'<D>4")}
	serial := pipelineFingerprint(inputs, targets, 1)
	if !strings.Contains(serial, "rows=[0 10 20") {
		t.Fatalf("fingerprint lost per-row indices:\n%s", serial)
	}
	for _, w := range []int{2, 4, 8} {
		got := pipelineFingerprint(inputs, targets, w)
		if got != serial {
			t.Fatalf("workers=%d diverges from serial:\n%s", w, firstDiff(serial, got))
		}
	}
}

// TestStreamDifferentialBenchSuite is the differential layer over the
// 47-task suite: for every task, the streaming bulk-apply engine must
// produce output byte-identical to the in-memory SavedProgram.Transform —
// same bytes, same order, same flagged indices — for chunk sizes spanning
// one-row chunks through chunks larger than any task column, and worker
// counts spanning serial through oversubscribed. Chunk boundaries and
// fan-out must be invisible.
func TestStreamDifferentialBenchSuite(t *testing.T) {
	tasks := benchsuite.Tasks()
	if len(tasks) < 47 {
		t.Fatalf("benchmark suite has %d tasks, want >= 47", len(tasks))
	}
	programs := 0
	for _, task := range tasks {
		task := task
		t.Run(task.Name, func(t *testing.T) {
			// A task contributes once any selected target labels and
			// exports; tasks where no target labels are the suite's known
			// expressivity failures, not streaming bugs.
			var sp *clx.SavedProgram
			for _, target := range simuser.SelectTargets(task.Inputs, task.Outputs) {
				tr, err := clx.NewSession(task.Inputs).Label(target)
				if err != nil {
					continue
				}
				raw, err := tr.Export()
				if err != nil {
					continue
				}
				if sp, err = clx.LoadProgram(raw); err != nil {
					t.Fatalf("exported program does not load: %v", err)
				}
				break
			}
			if sp == nil {
				t.Skip("no selected target labels this task")
			}
			wantOut, wantFlagged := sp.Transform(task.Inputs)
			var want bytes.Buffer
			for _, v := range wantOut {
				want.WriteString(v)
				want.WriteByte('\n')
			}
			for _, chunk := range []int{1, 7, 1024} {
				for _, workers := range []int{1, 4, 8} {
					var got bytes.Buffer
					var flagged []int
					st, err := stream.Run(sp, stream.NewSliceReader(task.Inputs),
						stream.LineEncoder{}, &got, stream.Options{
							ChunkSize: chunk, Workers: workers,
							OnFlagged: func(row int) { flagged = append(flagged, row) }})
					if err != nil {
						t.Fatalf("chunk=%d workers=%d: %v", chunk, workers, err)
					}
					if got.String() != want.String() {
						t.Fatalf("chunk=%d workers=%d: stream output diverges:\n%s",
							chunk, workers, firstDiff(want.String(), got.String()))
					}
					if !equalIndices(flagged, wantFlagged) {
						t.Fatalf("chunk=%d workers=%d: flagged %v, want %v",
							chunk, workers, flagged, wantFlagged)
					}
					if st.Rows != int64(len(task.Inputs)) {
						t.Fatalf("chunk=%d workers=%d: stats count %d rows, want %d",
							chunk, workers, st.Rows, len(task.Inputs))
					}
				}
			}
			programs++
		})
	}
	if programs < 40 {
		t.Fatalf("only %d/%d tasks produced a program; the differential layer lost coverage", programs, len(tasks))
	}
}

func equalIndices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// firstDiff locates the first differing line of two multi-line dumps.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  serial:   %s\n  parallel: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length differs: serial %d lines, parallel %d lines", len(al), len(bl))
}
