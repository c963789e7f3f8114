package cluster

// Test-only API: the reference profiler and corpora for the external test
// package (cluster_test), which drives the reference differential through
// the public session API in package clx, and the index accessors the
// conservation checks read.
var (
	ReferenceProfile = referenceProfile
	ReferenceColumns = referenceColumns
)

// Rows returns the number of rows added so far.
func (ix *Index) Rows() int { return len(ix.data) }

// DistinctCounts returns the merged counted multiset: every distinct value
// with the number of rows carrying it, for the conservation checks.
func (ix *Index) DistinctCounts() map[string]int {
	out := make(map[string]int, ix.DistinctValues())
	for s := range ix.shards {
		for _, sl := range ix.shards[s].slots {
			out[sl.value] += sl.count
		}
	}
	return out
}
