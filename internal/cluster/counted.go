// Counted profiling: the §4.1 hot path reworked around distinct values and
// interned patterns. Real columns repeat — a 20k-row phone column has a
// handful of shapes and often far fewer distinct strings — so the column is
// first collapsed into a counted multiset (distinct value → row count +
// member rows), each distinct value is tokenized exactly once into a pooled
// buffer, and the resulting token sequence is hash-consed into a dense
// intern.PatternID. Everything downstream (grouping, constant discovery,
// refinement) then works per distinct value or per pattern id instead of
// per row, while the user-facing outputs — first-seen cluster order,
// per-row index lists, frozen constants — remain byte-identical to the
// original per-row scan (see DESIGN.md §9 and the reference-equivalence
// tests).
package cluster

import (
	"time"

	"clx/internal/intern"
	"clx/internal/parallel"
	"clx/internal/pattern"
	"clx/internal/token"
	"clx/internal/tokenize"
)

// Stats reports what one Profile pass saw and where the time went, for
// Session.ProfileStats (whose phases the benchmark's per-layer breakdown
// reads) and callers that monitor profiling cost.
type Stats struct {
	// Rows is the input column size; DistinctValues the number of unique
	// strings in it; LeafPatterns the number of initial clusters.
	Rows, DistinctValues, LeafPatterns int
	// Per-phase wall time: value de-duplication, tokenize+intern over
	// distinct values, cluster grouping, constant discovery, hierarchy
	// refinement. On the sharded path, Index and Tokenize cover the
	// routing and absorption phases of Index.Add.
	Index, Tokenize, Group, Constants, Refine time.Duration
	// Sharded reports which execution plan ran: the sharded mergeable
	// index (true) or the serial counted scan (false). Output is
	// byte-identical either way; the flag exists for monitoring and for
	// the auto-collapse threshold tests.
	Sharded bool
}

// valueIndex is the counted view of a column: the distinct values in
// first-seen order, how many rows carry each, which distinct slot each row
// resolves to, and the interned initial pattern of each distinct value.
type valueIndex struct {
	values []string
	counts []int
	slotOf []int32
	ids    []intern.PatternID
	table  *intern.Table
}

// indexColumn collapses data into its distinct values. The scan is serial
// and left-to-right: first-seen distinct order is what makes the counted
// cluster order provably identical to the per-row scan's.
func indexColumn(data []string) *valueIndex {
	vi := &valueIndex{slotOf: make([]int32, len(data))}
	slots := make(map[string]int32, len(data))
	for i, s := range data {
		d, ok := slots[s]
		if !ok {
			d = int32(len(vi.values))
			slots[s] = d
			vi.values = append(vi.values, s)
			vi.counts = append(vi.counts, 0)
		}
		vi.counts[d]++
		vi.slotOf[i] = d
	}
	return vi
}

// tokenizeAll derives and interns the initial pattern of every distinct
// value. Each worker reuses one token buffer across its chunk, so a value
// whose pattern is already interned costs zero allocations.
func (vi *valueIndex) tokenizeAll(workers int, tbl *intern.Table) {
	vi.table = tbl
	vi.ids = make([]intern.PatternID, len(vi.values))
	parallel.ForChunks(workers, len(vi.values), func(lo, hi int) {
		buf := make([]token.Token, 0, 32)
		for d := lo; d < hi; d++ {
			buf = tokenize.AppendTokenize(buf[:0], vi.values[d])
			vi.ids[d] = tbl.Intern(buf)
		}
	})
}

// initialCounted is Initial over the counted view: it returns the clusters
// in first-seen order plus, per cluster, its member distinct slots (for the
// constant-discovery pass). st, when non-nil, receives phase timings.
func initialCounted(data []string, opts Options, tbl *intern.Table, st *Stats) ([]*Cluster, *valueIndex, [][]int32) {
	t0 := time.Now()
	vi := indexColumn(data)
	t1 := time.Now()
	vi.tokenizeAll(opts.Workers, tbl)
	t2 := time.Now()

	// Group distinct values by pattern id. Distinct values are in
	// first-row-seen order, so the first distinct value with a given
	// pattern is also the first *row* with it: cluster order and Sample
	// match the per-row scan exactly.
	clusterOf := make(map[intern.PatternID]int32, 64)
	var order []*Cluster
	var members [][]int32
	slotCluster := make([]int32, len(vi.values))
	for d, id := range vi.ids {
		ci, ok := clusterOf[id]
		if !ok {
			ci = int32(len(order))
			clusterOf[id] = ci
			order = append(order, &Cluster{
				Pattern: pattern.Of(tbl.Tokens(id)...),
				Sample:  vi.values[d],
			})
			members = append(members, nil)
		}
		members[ci] = append(members[ci], int32(d))
		slotCluster[d] = ci
	}
	// Per-row membership comes from a serial row-order scan — Rows lists
	// stay in ascending row order, the user-facing contract.
	for i := range data {
		c := order[slotCluster[vi.slotOf[i]]]
		c.Rows = append(c.Rows, i)
	}
	t3 := time.Now()
	if opts.DiscoverConstants {
		discoverConstants(order, members, vi, opts)
		// Constant substitution can only refine labels, never merge
		// clusters, so the partition is unchanged.
	}
	if st != nil {
		st.Rows = len(data)
		st.DistinctValues = len(vi.values)
		st.LeafPatterns = len(order)
		st.Index = t1.Sub(t0)
		st.Tokenize = t2.Sub(t1)
		st.Group = t3.Sub(t2)
		st.Constants = time.Since(t3)
	}
	return order, vi, members
}

// discoverConstants rewrites base tokens whose value is constant across all
// cluster members into literal tokens, following §4.1 (statistics over
// tokenized strings), operating per distinct value with row counts.
//
// Initial patterns carry only natural-number quantifiers (tokenize never
// emits '+'), so every token's span is fixed and shared by all members:
// spans come from a cumulative FixedLen walk, with no per-row matching.
func discoverConstants(clusters []*Cluster, members [][]int32, vi *valueIndex, opts Options) {
	// Corpus statistics: in how many rows does each base-token value occur?
	// Each worker accumulates a shard-local map over its distinct-value
	// chunk, weighted by row counts; integer addition commutes, so the
	// merged counts are independent of shard boundaries — and identical to
	// the per-row accumulation, since equal rows contribute equal sets.
	//
	// Values longer than MaxConstantLen are never candidates for freezing
	// (the FixedLen cap below), so their counts are never consulted and
	// they are skipped here.
	chunks := parallel.Chunks(opts.Workers, len(vi.values))
	partials := make([]map[string]int, len(chunks))
	parallel.For(opts.Workers, len(chunks), func(ci int) {
		local := make(map[string]int)
		var vals []string // per-value distinct substrings, reused
		for d := chunks[ci][0]; d < chunks[ci][1]; d++ {
			s := vi.values[d]
			vals = vals[:0]
			off := 0
			for _, t := range vi.table.Tokens(vi.ids[d]) {
				n, _ := t.FixedLen()
				if !t.IsLiteral() && n <= opts.MaxConstantLen {
					v := s[off : off+n]
					dup := false
					for _, u := range vals {
						if u == v {
							dup = true
							break
						}
					}
					if !dup {
						vals = append(vals, v)
					}
				}
				off += n
			}
			for _, v := range vals {
				local[v] += vi.counts[d]
			}
		}
		partials[ci] = local
	})
	rowsWith := make(map[string]int)
	for _, local := range partials {
		for v, n := range local {
			rowsWith[v] += n
		}
	}
	frequent := func(v string) bool {
		return float64(rowsWith[v]) >= opts.MinConstantRatio*float64(len(vi.slotOf))
	}
	// Per-cluster discovery writes only its own cluster's pattern and reads
	// the now-frozen rowsWith map — independent per cluster.
	parallel.For(opts.Workers, len(clusters), func(i int) {
		freezeClusterConstants(clusters[i], members[i], vi, frequent, opts)
	})
}

// freezeClusterConstants freezes the constant base tokens of one cluster,
// checking candidate positions across the cluster's distinct values only —
// identical rows can neither create nor break constancy.
func freezeClusterConstants(c *Cluster, members []int32, vi *valueIndex, frequent func(string) bool, opts Options) {
	if c.Count() < opts.MinConstantSupport {
		return
	}
	toks := c.Pattern.Tokens()
	first := vi.values[members[0]]
	newToks := make([]token.Token, len(toks))
	copy(newToks, toks)
	changed := false
	off := 0
	for ti, t := range toks {
		l, _ := t.FixedLen() // initial patterns are fully fixed
		start := off
		off += l
		if t.IsLiteral() || l > opts.MaxConstantLen {
			continue
		}
		val := first[start : start+l]
		constant := true
		for _, d := range members[1:] {
			if vi.values[d][start:start+l] != val {
				constant = false
				break
			}
		}
		if constant && frequent(val) {
			newToks[ti] = token.Lit(val)
			changed = true
		}
	}
	if changed {
		c.Pattern = pattern.Of(coalesceConstants(newToks)...)
	}
}
