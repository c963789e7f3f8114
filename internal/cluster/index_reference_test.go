package cluster

// Differential suite for the sharded, mergeable, incremental index: every
// combination of shard count, worker count, and append schedule must
// reproduce the reference per-row profile bit for bit — the same
// discipline the automaton and stream engines are held to. `make gate`
// runs this under the race detector via the profile-parity target.

import (
	"runtime"
	"testing"

	"clx/internal/dataset"
)

// pinGOMAXPROCS raises the scheduler's processor count for the test so the
// sharded plan actually runs concurrently (and the race tier sees real
// interleavings) even on a one-CPU CI container.
func pinGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// increments splits rows into parts contiguous, non-empty-where-possible
// append batches: the schedules the incremental API must be invariant to.
func increments(rows []string, parts int) [][]string {
	out := make([][]string, 0, parts)
	for p := 0; p < parts; p++ {
		lo, hi := p*len(rows)/parts, (p+1)*len(rows)/parts
		out = append(out, rows[lo:hi])
	}
	return out
}

// TestShardedIndexMatchesReference is the central equivalence theorem of
// the sharded-index rewrite: for every corpus, option set, shard count,
// worker count, and append schedule (everything at once vs four
// increments), Index.Profile emits a hierarchy byte-identical to the
// reference per-row implementation — including after every intermediate
// increment, where the index must match the reference profile of the
// prefix added so far.
func TestShardedIndexMatchesReference(t *testing.T) {
	pinGOMAXPROCS(t, 4)
	for name, rows := range referenceColumns() {
		for _, discover := range []bool{true, false} {
			opts := DefaultOptions()
			opts.DiscoverConstants = discover
			opts.Workers = 1

			// Reference fingerprints per prefix length, computed lazily:
			// the full column for the all-at-once schedule, each prefix for
			// the incremental one.
			refAt := map[int]string{}
			ref := func(n int) string {
				if fp, ok := refAt[n]; ok {
					return fp
				}
				fp := hierarchyFingerprint(referenceProfile(rows[:n], opts))
				refAt[n] = fp
				return fp
			}

			for _, shards := range []int{1, 4, 16} {
				for _, w := range []int{1, 2, 4, 8} {
					ixOpts := opts
					ixOpts.Workers = w

					// All at once.
					ix := NewIndexShards(ixOpts, shards)
					ix.Add(rows)
					if got := hierarchyFingerprint(ix.Profile()); got != ref(len(rows)) {
						t.Errorf("%s discover=%v shards=%d workers=%d: all-at-once diverges from reference",
							name, discover, shards, w)
					}

					// Four increments, profiling after each.
					ix = NewIndexShards(ixOpts, shards)
					added := 0
					for _, inc := range increments(rows, 4) {
						ix.Add(inc)
						added += len(inc)
						if got := hierarchyFingerprint(ix.Profile()); got != ref(added) {
							t.Errorf("%s discover=%v shards=%d workers=%d: profile after %d/%d rows diverges from reference",
								name, discover, shards, w, added, len(rows))
						}
					}
				}
			}
		}
	}
}

// TestNewIndexShardCount pins how an index sizes itself at its first Add:
// the largest power of two within effective parallelism — min(resolved
// workers, GOMAXPROCS) — within first-batch rows / minShardRows, and within
// the default fan-out. The rule is derived, never configured, and a later
// Add never resizes.
func TestNewIndexShardCount(t *testing.T) {
	cases := []struct {
		gomaxprocs, workers, rows, want int
	}{
		{4, 4, 20, 1},
		{4, 4, 200, 1},
		{4, 4, 2*minShardRows - 1, 1},
		{4, 4, 2 * minShardRows, 2},
		{4, 4, 4 * minShardRows, 4},
		{4, 0, 20000, 4},
		{4, 2, 20000, 2},
		{4, 3, 20000, 2},
		{32, 32, 32 * minShardRows, defaultIndexShards},
		{1, 8, 20000, 1},
		{1, 0, 20000, 1},
		{4, 1, 20000, 1},
	}
	for _, tc := range cases {
		pinGOMAXPROCS(t, tc.gomaxprocs)
		opts := DefaultOptions()
		opts.Workers = tc.workers
		ix := NewIndex(opts)
		rows := make([]string, tc.rows)
		ix.Add(rows)
		if got := len(ix.shards); got != tc.want {
			t.Errorf("GOMAXPROCS=%d workers=%d rows=%d: %d shards, want %d",
				tc.gomaxprocs, tc.workers, tc.rows, got, tc.want)
		}
		ix.Add(make([]string, 32*minShardRows))
		if got := len(ix.shards); got != tc.want {
			t.Errorf("GOMAXPROCS=%d workers=%d rows=%d: a later Add resized the index to %d shards",
				tc.gomaxprocs, tc.workers, tc.rows, got)
		}
	}
}

// TestIndexIncrementalState pins the index bookkeeping across appends: row
// and distinct-value accounting, conservation of shard counts, and that a
// re-profile with no intervening Add reports zero pending Add time.
func TestIndexIncrementalState(t *testing.T) {
	rows, _ := dataset.Phones(1000, 6, 77)
	ix := NewIndex(DefaultOptions())
	ix.Add(rows[:600])
	ix.Add(rows[600:])

	if got := ix.Rows(); got != len(rows) {
		t.Fatalf("Rows = %d, want %d", got, len(rows))
	}
	serial := make(map[string]int)
	for _, v := range rows {
		serial[v]++
	}
	merged := ix.DistinctCounts()
	if len(merged) != len(serial) || ix.DistinctValues() != len(serial) {
		t.Fatalf("distinct values = %d (map %d), want %d", ix.DistinctValues(), len(merged), len(serial))
	}
	total := 0
	for v, n := range merged {
		if serial[v] != n {
			t.Errorf("count[%q] = %d, want %d", v, n, serial[v])
		}
		total += n
	}
	if total != len(rows) {
		t.Errorf("shard counts sum to %d, want %d", total, len(rows))
	}

	_, st := ix.ProfileWithStats()
	if st.Rows != len(rows) || st.DistinctValues != len(serial) {
		t.Errorf("stats = %+v, want Rows=%d DistinctValues=%d", st, len(rows), len(serial))
	}
	// Re-profile without an Add: the pending Add timings were consumed.
	_, st2 := ix.ProfileWithStats()
	if st2.Index != 0 || st2.Tokenize != 0 {
		t.Errorf("re-profile reports pending Add time (index=%v tokenize=%v), want zero", st2.Index, st2.Tokenize)
	}
	if st2.Rows != st.Rows || st2.LeafPatterns != st.LeafPatterns {
		t.Errorf("re-profile changed sizes: %+v vs %+v", st2, st)
	}
}

// TestIndexReturnedHierarchyImmutable: a hierarchy materialized before an
// append must not change when the index grows.
func TestIndexReturnedHierarchyImmutable(t *testing.T) {
	rows, _ := dataset.Phones(500, 6, 77)
	ix := NewIndex(DefaultOptions())
	ix.Add(rows[:400])
	before := ix.Profile()
	fp := hierarchyFingerprint(before)
	ix.Add(rows[400:])
	ix.Profile()
	if hierarchyFingerprint(before) != fp {
		t.Error("append mutated a previously returned hierarchy")
	}
}

// TestNewIndexShardsValidation: shard counts must be powers of two.
func TestNewIndexShardsValidation(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewIndexShards(%d) did not panic", bad)
				}
			}()
			NewIndexShards(DefaultOptions(), bad)
		}()
	}
	for _, ok := range []int{1, 2, 8, 16} {
		if got := len(NewIndexShards(DefaultOptions(), ok).shards); got != ok {
			t.Errorf("NewIndexShards(%d) has %d shards", ok, got)
		}
	}
}

// TestIndexEmptyAndDegenerate covers the shapes that break off-by-ones:
// no rows at all, empty-string rows, and a single row.
func TestIndexEmptyAndDegenerate(t *testing.T) {
	for _, rows := range [][]string{{}, {""}, {"", "", ""}, {"only-one-row"}} {
		opts := DefaultOptions()
		want := hierarchyFingerprint(referenceProfile(rows, opts))
		ix := NewIndex(opts)
		ix.Add(rows)
		if got := hierarchyFingerprint(ix.Profile()); got != want {
			t.Errorf("rows=%q: index diverges from reference", rows)
		}
	}
	// Add of an empty batch is a no-op.
	ix := NewIndex(DefaultOptions())
	ix.Add(nil)
	if ix.Rows() != 0 || ix.DistinctValues() != 0 {
		t.Errorf("Add(nil) changed state: rows=%d distinct=%d", ix.Rows(), ix.DistinctValues())
	}
}

func BenchmarkIndexIncrementalReprofile(b *testing.B) {
	rows, _ := dataset.Phones(20000, 6, 77)
	cut := len(rows) * 95 / 100
	opts := DefaultOptions()
	opts.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := NewIndex(opts)
		ix.Add(rows[:cut])
		ix.Profile()
		b.StartTimer()
		ix.Add(rows[cut:])
		ix.Profile()
	}
}
