package clx_test

// Cost tests for the session's profile index: a session keeps the index it
// built at create, so its first append costs O(appended rows), and the
// benchmarks below report what create, the first append, and the kept
// index cost at one worker.

import (
	"fmt"
	"runtime"
	"testing"

	clx "clx"
	"clx/internal/dataset"
)

// serialOpts is the one-worker configuration the benchmark daemon runs.
func serialOpts() clx.Options {
	o := clx.DefaultOptions()
	o.Workers = 1
	return o
}

// firstAppendAllocs is the average allocation count of the first
// AppendAndReprofile of extra onto a fresh session over base. Each run
// gets its own session, built before measuring, so only the append counts.
func firstAppendAllocs(base, extra []string) float64 {
	const runs = 4
	sessions := make([]*clx.Session, runs+1) // AllocsPerRun warms up once
	for i := range sessions {
		sessions[i] = clx.NewSession(base, serialOpts())
	}
	next := 0
	return testing.AllocsPerRun(runs, func() {
		sessions[next].AppendAndReprofile(extra)
		next++
	})
}

// TestFirstAppendAllocsIndependentOfColumn: the first append onto a
// session folds only the appended rows into the index the session built at
// create, so its allocation count does not grow with the column. A session
// that rebuilt its index over the whole column on the first append would
// allocate in proportion to the column's distinct values and shapes.
func TestFirstAppendAllocsIndependentOfColumn(t *testing.T) {
	rows, _ := dataset.Phones(20010, 6, 77)
	extra := rows[20000:]
	small := firstAppendAllocs(rows[:2000], extra)
	large := firstAppendAllocs(rows[:20000], extra)
	const slack = 8 // slice and map growth steps the two columns may hit differently
	if d := large - small; d > slack || d < -slack {
		t.Errorf("first append of %d rows: %.0f allocs onto 2k rows, %.0f onto 20k rows; want equal within %d",
			len(extra), small, large, slack)
	}
}

// BenchmarkNewSession profiles small and large phone columns at one and
// two workers: serve-mix registers 20–200 rows, wrangle profiles 20k, and
// the benchmark daemon runs one worker where the library default is
// GOMAXPROCS.
func BenchmarkNewSession(b *testing.B) {
	for _, n := range []int{20, 200, 20000} {
		rows, _ := dataset.Phones(n, 6, 77)
		for _, w := range []int{1, 2} {
			opts := serialOpts()
			opts.Workers = w
			b.Run(fmt.Sprintf("rows-%d/workers-%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					clx.NewSession(rows, opts)
				}
			})
		}
	}
}

// BenchmarkNewSessionFirstAppend is a wrangle session's profile work:
// create over 20k phone rows, then one append of 1k rows.
func BenchmarkNewSessionFirstAppend(b *testing.B) {
	rows, _ := dataset.Phones(21000, 6, 77)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clx.NewSession(rows[:20000], serialOpts()).AppendAndReprofile(rows[20000:])
	}
}

// BenchmarkSessionRetained reports the live heap one 20k-row session keeps
// after a garbage collection, with the session still held — the
// per-session cost of keeping the profile index — for a nearly all-distinct
// phone column and a duplicate-heavy one (200 distinct phones, each 100
// times).
func BenchmarkSessionRetained(b *testing.B) {
	phones, _ := dataset.Phones(20000, 6, 77)
	dupHeavy := make([]string, 0, len(phones))
	for len(dupHeavy) < len(phones) {
		dupHeavy = append(dupHeavy, phones[:200]...)
	}
	for _, col := range []struct {
		name string
		rows []string
	}{{"phones", phones}, {"dup-heavy", dupHeavy}} {
		b.Run(col.name, func(b *testing.B) {
			var before, after runtime.MemStats
			var retained float64
			for i := 0; i < b.N; i++ {
				runtime.GC()
				runtime.ReadMemStats(&before)
				sess := clx.NewSession(col.rows, serialOpts())
				runtime.GC()
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(sess)
				retained += float64(after.HeapAlloc) - float64(before.HeapAlloc)
			}
			b.ReportMetric(retained/float64(b.N), "retained-B/session")
		})
	}
}
