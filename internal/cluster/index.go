// The sharded, mergeable, incremental distinct-value index: the one plan
// behind Initial, Profile and every session.
//
// Real columns repeat — a 20k-row phone column has a handful of shapes —
// so the index collapses a column into its distinct values, tokenizes each
// distinct value exactly once, and hash-conses the resulting token
// sequence into a dense intern.PatternID. Everything downstream (grouping,
// constant discovery, refinement) works per distinct value or per pattern
// id instead of per row, while the user-facing outputs — first-seen
// cluster order, per-row index lists, frozen constants — stay byte-identical
// to the per-row reference scan (DESIGN.md §9, reference_test.go).
//
// The distinct-value space is partitioned by a hash of the value bytes
// into independent shards (the same 16-way design as internal/intern), so
// deduplication, tokenization, pattern interning, row counting, and the
// count-weighted constant-frequency map all run shard-parallel and merge
// without coordination:
//
//   - per-value row counts live in exactly one shard, so the merged
//     multiset is a concatenation, never a reconciliation;
//   - the constant-frequency map is integer-valued and increments commute,
//     so per-shard maps never need merging at all — a frequency query sums
//     one lookup per shard;
//   - pattern identity is an intern.PatternID, already stable under
//     concurrent interning.
//
// The index sizes itself at its first Add from the effective worker count
// and that batch's size. On one worker, or for a column too small to repay
// a shard's fixed cost, it has a single shard: the per-shard dedup is then
// the whole serial scan, and parallel.For runs it inline with no goroutine
// hand-off.
//
// The one thing sharding destroys is first-seen order, which is part of
// the user contract (cluster order, samples, row lists). Profile restores
// it with a serial walk over per-row shard/slot references — an array
// scan, not a re-hash — and that walk is also what makes the index
// *incremental*: rows already folded into the cached grouping are never
// revisited, so Add(rows); Profile() after an append costs O(new rows)
// plus the (sub-millisecond) refinement rounds, not a full re-profile.
// Output is byte-identical to referenceProfile for every shard count,
// worker count, and append schedule (see index_reference_test.go).
package cluster

import (
	"slices"
	"time"

	"clx/internal/intern"
	"clx/internal/parallel"
	"clx/internal/pattern"
	"clx/internal/token"
	"clx/internal/tokenize"
)

// defaultIndexShards mirrors intern's fan-out: enough shards that profile
// workers rarely collide, few enough that per-shard maps stay
// cache-friendly. It caps the shard count.
const defaultIndexShards = 16

// minShardRows is the fewest first-batch rows each shard must receive: a
// shard's fixed cost (bucket map, intern memo, frequency map, routing
// lists) outweighs a second worker's saving on a 20–200-row column.
const minShardRows = 2048

// shardCount sizes an index from the first batch it absorbs: the largest
// power of two that is at most the effective worker count, at most
// rows/minShardRows, and at most defaultIndexShards — never below 1.
func shardCount(workers, rows int) int {
	n := 1
	for 2*n <= workers && 2*n*minShardRows <= rows && 2*n <= defaultIndexShards {
		n *= 2
	}
	return n
}

// Stats reports what one profile pass saw and where the time went, for
// Session.ProfileStats (whose phases the benchmark's per-layer breakdown
// reads) and callers that monitor profiling cost.
type Stats struct {
	// Rows is the input column size; DistinctValues the number of unique
	// strings in it; LeafPatterns the number of initial clusters.
	Rows, DistinctValues, LeafPatterns int
	// Per-phase wall time. Index and Tokenize are the routing and
	// absorption phases of the Adds since the previous profile
	// (deduplication, then tokenize+intern of new distinct values); Group,
	// Constants and Refine are the first-seen walk, constant discovery,
	// and hierarchy refinement.
	Index, Tokenize, Group, Constants, Refine time.Duration
}

// slotRef names one distinct value: the shard owning it and its slot there.
type slotRef struct {
	shard, slot int32
}

// slot is one distinct value of a shard. It is pointer-free apart from the
// value string, so inserting a distinct value costs amortized growth of one
// slice.
type slot struct {
	value string
	count int
	// id is the value's interned initial pattern.
	id intern.PatternID
	// next chains slots whose values share a hash (collisions are resolved
	// by string comparison); -1 ends the chain.
	next int32
	// group is the global cluster index the first-seen walk assigned, -1
	// until the slot has been walked.
	group int32
	// stamp is the last Add batch (shard epoch) that touched the slot — an
	// O(1) probe instead of a per-row map op when batching the constant
	// frequency updates of one append.
	stamp int32
}

// indexShard is one partition of the distinct-value space. All fields are
// owned by a single worker during Add (rows are routed to exactly one
// shard) and read-only during Profile.
type indexShard struct {
	// buckets maps a value hash to the first slot carrying it.
	buckets map[uint64]int32
	// slots are the shard's distinct values in local insertion order.
	slots []slot
	// cfreq is the count-weighted constant-frequency map over this shard's
	// values: cfreq[v] = rows whose value contains candidate substring v.
	// Unused when constant discovery is off.
	cfreq map[string]int
	epoch int32
}

// group is the cached grouping state of one cluster: its pattern id, its
// member distinct values in first-seen order, and its member rows in
// ascending row order. Grown only by append; never shrinks or rewrites an
// element, so a capped subslice of rows is an immutable snapshot.
type group struct {
	id      intern.PatternID
	members []slotRef
	rows    []int
}

// Index is a sharded, mergeable, incrementally-updatable profile of one
// growing column. Add appends rows (safe to call repeatedly); Profile
// materializes the hierarchy of the concatenation of every Add so far,
// reusing all per-shard state so a small append re-profiles in time
// proportional to the appended rows.
//
// An Index is not safe for concurrent use by multiple goroutines; it is
// the session-scoped state behind clx.Session.
type Index struct {
	opts   Options
	mask   uint64
	table  *intern.Table
	shards []indexShard
	data   []string
	rowRef []slotRef

	// Cached grouping state: rows [0, grouped) are folded in.
	grouped   int
	clusterOf map[intern.PatternID]int32
	groups    []*group

	// Add timings pending attribution to the next ProfileWithStats.
	pendIndex, pendTokenize time.Duration
}

// NewIndex returns an empty index. Its shard count is fixed by its first
// non-empty Add (see shardCount), so a session's index is sized by the
// column it is created over.
func NewIndex(opts Options) *Index {
	return &Index{
		opts:      opts,
		table:     intern.NewTable(),
		clusterOf: make(map[intern.PatternID]int32),
	}
}

// NewIndexShards is NewIndex with an explicit shard count, which must be a
// power of two (the differential suite pins output equality across 1, 4,
// and 16 shards; production callers want NewIndex).
func NewIndexShards(opts Options, shards int) *Index {
	if shards <= 0 || shards&(shards-1) != 0 {
		panic("cluster: shard count must be a power of two")
	}
	ix := NewIndex(opts)
	ix.setShards(shards)
	return ix
}

func (ix *Index) setShards(n int) {
	ix.mask = uint64(n - 1)
	ix.shards = make([]indexShard, n)
}

// DistinctValues returns the merged distinct-value count across shards.
func (ix *Index) DistinctValues() int {
	n := 0
	for s := range ix.shards {
		n += len(ix.shards[s].slots)
	}
	return n
}

// touch records the row count, before the current Add batch, of a slot
// that existed before it.
type touch struct {
	slot int32
	prev int
}

// Add appends rows to the indexed column. Work is two parallel phases:
// route (hash every row to its shard) and absorb (each shard deduplicates
// its rows, tokenizes and interns values it has never seen, and bumps row
// counts and constant-frequency statistics). A value that already exists
// costs one hash, one bucket probe, and one count increment — O(new
// distinct values) of tokenize/intern work per append, not O(rows).
func (ix *Index) Add(rows []string) {
	if len(rows) == 0 {
		return
	}
	t0 := time.Now()
	base := len(ix.data)
	ix.data = append(ix.data, rows...)
	ix.rowRef = append(ix.rowRef, make([]slotRef, len(rows))...)

	workers := parallel.Effective(ix.opts.Workers)
	if ix.shards == nil {
		ix.setShards(shardCount(workers, len(rows)))
	}
	nshards := len(ix.shards)

	// Route: hash each appended row and bucket it per (chunk, shard).
	// Chunk-major lists let every shard consume its rows in global row
	// order without any cross-worker handoff — though nothing downstream
	// depends on that order; first-seen semantics come from the walk in
	// Profile, never from shard-local insertion order. A single shard
	// takes every row, so it needs no list.
	chunks := parallel.Chunks(workers, len(rows))
	hashes := make([]uint64, len(rows))
	var routed [][][]int32
	if nshards > 1 {
		routed = make([][][]int32, len(chunks))
	}
	parallel.For(workers, len(chunks), func(ci int) {
		var lists [][]int32
		if routed != nil {
			lists = make([][]int32, nshards)
			routed[ci] = lists
		}
		for i := chunks[ci][0]; i < chunks[ci][1]; i++ {
			h := intern.HashString(rows[i])
			hashes[i] = h
			if lists != nil {
				s := h & ix.mask
				lists[s] = append(lists[s], int32(i))
			}
		}
	})
	t1 := time.Now()

	// Absorb: shards are independent, so this is a map over shards with no
	// locks except inside the intern table (which is itself sharded, and
	// fronted by a per-worker memo). The constant-frequency update is
	// batched per distinct slot — each slot touched by this append
	// contributes its candidate substrings once, weighted by how many
	// appended rows carried it — so duplicate-heavy appends never re-walk a
	// value's tokens per row. Slots the batch creates are contiguous and
	// start from zero rows; earlier slots it touches are tracked with an
	// epoch stamp per slot, so the per-row cost is one array probe, not a
	// map op.
	parallel.For(workers, nshards, func(s int) {
		sh := &ix.shards[s]
		n := len(rows)
		if routed != nil {
			n = 0
			for ci := range routed {
				n += len(routed[ci][s])
			}
		}
		if n == 0 {
			return
		}
		if sh.buckets == nil {
			sh.buckets = make(map[uint64]int32)
		}
		buf := make([]token.Token, 0, 32)
		loc := intern.NewLocal(ix.table)
		sh.epoch++
		old := len(sh.slots)
		var touched []touch
		absorb := func(i int) {
			h, v := hashes[i], rows[i]
			head, ok := sh.buckets[h]
			si := int32(-1)
			if ok {
				for cand := head; cand >= 0; cand = sh.slots[cand].next {
					if sh.slots[cand].value == v {
						si = cand
						break
					}
				}
			}
			if si < 0 {
				if !ok {
					head = -1
				}
				si = int32(len(sh.slots))
				sh.buckets[h] = si
				buf = tokenize.AppendTokenize(buf[:0], v)
				sh.slots = appendDoubling(sh.slots, slot{value: v, id: loc.Intern(buf), next: head, group: -1, stamp: sh.epoch})
			}
			sl := &sh.slots[si]
			if ix.opts.DiscoverConstants && sl.stamp != sh.epoch {
				sl.stamp = sh.epoch
				touched = append(touched, touch{si, sl.count})
			}
			sl.count++
			ix.rowRef[base+i] = slotRef{shard: int32(s), slot: si}
		}
		if routed == nil {
			for i := range rows {
				absorb(i)
			}
		} else {
			for ci := range routed {
				for _, ri := range routed[ci][s] {
					absorb(int(ri))
				}
			}
		}
		if !ix.opts.DiscoverConstants {
			return
		}
		if sh.cfreq == nil {
			sh.cfreq = make(map[string]int)
		}
		var vals []string
		count := func(si int32, delta int) {
			sl := &sh.slots[si]
			vals = ix.constantCandidates(vals[:0], sl.value, sl.id)
			for _, cv := range vals {
				sh.cfreq[cv] += delta
			}
		}
		for _, tc := range touched {
			count(tc.slot, sh.slots[tc.slot].count-tc.prev)
		}
		for si := old; si < len(sh.slots); si++ {
			count(int32(si), sh.slots[si].count)
		}
	})
	ix.pendIndex += t1.Sub(t0)
	ix.pendTokenize += time.Since(t1)
}

// constantCandidates appends the distinct candidate substrings of value s
// under pattern id: the values of non-literal tokens no longer than
// MaxConstantLen (§4.1 statistics over tokenized strings). Initial
// patterns carry only natural-number quantifiers (tokenize never emits
// '+'), so every token's span is fixed: spans are a cumulative FixedLen
// walk, with no per-row matching.
func (ix *Index) constantCandidates(vals []string, s string, id intern.PatternID) []string {
	off := 0
	for _, t := range ix.table.Tokens(id) {
		n, _ := t.FixedLen()
		if !t.IsLiteral() && n <= ix.opts.MaxConstantLen {
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
	return vals
}

// frequent reports whether candidate v clears the corpus-frequency bar —
// the mergeable-map payoff: one integer lookup per shard, summed, instead
// of a merged map built per profile.
func (ix *Index) frequent(v string) bool {
	n := 0
	for s := range ix.shards {
		n += ix.shards[s].cfreq[v]
	}
	return float64(n) >= ix.opts.MinConstantRatio*float64(len(ix.data))
}

// walk folds rows [grouped, len(data)) into the cached grouping. The scan
// is serial and in global row order — the first row carrying a pattern
// defines its cluster's position and sample, exactly as the reference
// per-row scan does — but it touches only appended rows: per row, one
// array read and one int append; per *new* distinct value, one map probe
// on its pattern id.
func (ix *Index) walk() {
	for i := ix.grouped; i < len(ix.data); i++ {
		r := ix.rowRef[i]
		sl := &ix.shards[r.shard].slots[r.slot]
		if sl.group < 0 {
			gi, ok := ix.clusterOf[sl.id]
			if !ok {
				gi = int32(len(ix.groups))
				ix.clusterOf[sl.id] = gi
				ix.groups = append(ix.groups, &group{id: sl.id})
			}
			sl.group = gi
			g := ix.groups[gi]
			g.members = appendDoubling(g.members, r)
		}
		g := ix.groups[sl.group]
		g.rows = appendDoubling(g.rows, i)
	}
	ix.grouped = len(ix.data)
}

// appendDoubling is append with doubling growth. append grows large slices
// by 1.25×, which allocates about five times the final slice in total; the
// index's per-value and per-row lists grow to column size.
func appendDoubling[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s)+1)
	}
	return append(s, v)
}

// value returns the distinct value r names.
func (ix *Index) value(r slotRef) string { return ix.shards[r.shard].slots[r.slot].value }

// clusters materializes the initial clusters (§4.1) of everything added so
// far, in first-seen order, with constant tokens frozen when
// opts.DiscoverConstants is set, and records the sizes and the Group and
// Constants phases in st.
func (ix *Index) clusters(st *Stats) []*Cluster {
	t0 := time.Now()
	ix.walk()

	// Patterns start from the interned base tokens every time (constant
	// discovery below may specialize them, and an append can break a
	// previously-discovered constant). Row lists are capped subslices of
	// the grouping's append-only row lists, so hierarchies returned
	// earlier stay immutable as the index grows.
	workers := parallel.Effective(ix.opts.Workers)
	clusters := make([]*Cluster, len(ix.groups))
	parallel.For(workers, len(ix.groups), func(i int) {
		g := ix.groups[i]
		n := len(g.rows)
		clusters[i] = &Cluster{
			Pattern: pattern.Of(ix.table.Tokens(g.id)...),
			Rows:    g.rows[:n:n],
			Sample:  ix.value(g.members[0]),
		}
	})
	t1 := time.Now()
	if ix.opts.DiscoverConstants {
		parallel.For(workers, len(clusters), func(i int) {
			ix.freezeConstants(clusters[i], ix.groups[i])
		})
	}

	st.Rows = len(ix.data)
	st.DistinctValues = ix.DistinctValues()
	st.LeafPatterns = len(clusters)
	st.Group = t1.Sub(t0)
	st.Constants = time.Since(t1)
	return clusters
}

// Profile materializes the pattern hierarchy of everything added so far.
func (ix *Index) Profile() *Hierarchy {
	h, _ := ix.ProfileWithStats()
	return h
}

// ProfileWithStats is Profile with the per-phase timing breakdown. Index
// and Tokenize report the routing and absorption cost of the Adds since
// the previous profile (zero for a pure re-profile), so an incremental
// re-profile's stats show only the work the append actually caused.
func (ix *Index) ProfileWithStats() (*Hierarchy, *Stats) {
	st := &Stats{Index: ix.pendIndex, Tokenize: ix.pendTokenize}
	ix.pendIndex, ix.pendTokenize = 0, 0
	clusters := ix.clusters(st)

	t0 := time.Now()
	leaves := make([]*Node, len(clusters))
	for i, c := range clusters {
		leaves[i] = &Node{Pattern: c.Pattern, Level: 0, Leaves: []*Cluster{c}}
	}
	h := &Hierarchy{Levels: [][]*Node{leaves}, Clusters: clusters, Data: ix.data}
	for level, g := range []Strategy{QuantToPlus, LettersToAlpha, AllToAlphaNum} {
		h.Levels = append(h.Levels, refine(h.Levels[level], g, level+1, ix.table))
	}
	st.Refine = time.Since(t0)
	return h, st
}

// freezeConstants rewrites c's base tokens whose value is constant across
// the group's distinct members — identical rows can neither create nor
// break constancy — and frequent across the column (§4.1 "Find Constant
// Tokens") into literal tokens.
func (ix *Index) freezeConstants(c *Cluster, g *group) {
	if len(g.rows) < ix.opts.MinConstantSupport {
		return
	}
	toks := c.Pattern.Tokens()
	first := ix.value(g.members[0])
	newToks := make([]token.Token, len(toks))
	copy(newToks, toks)
	changed := false
	off := 0
	for ti, t := range toks {
		l, _ := t.FixedLen() // initial patterns are fully fixed
		start := off
		off += l
		if t.IsLiteral() || l > ix.opts.MaxConstantLen {
			continue
		}
		val := first[start : start+l]
		constant := true
		for _, m := range g.members[1:] {
			if ix.value(m)[start:start+l] != val {
				constant = false
				break
			}
		}
		if constant && ix.frequent(val) {
			newToks[ti] = token.Lit(val)
			changed = true
		}
	}
	if changed {
		c.Pattern = pattern.Of(coalesceConstants(newToks)...)
	}
}
