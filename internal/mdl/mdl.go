// Package mdl implements the Minimum Description Length ranking of atomic
// transformation plans (paper §6.3, Eq. 3–6). The plan with the smallest
// description length is presented as the default; the k next-best plans are
// kept as repair alternatives (§6.4).
package mdl

import (
	"cmp"
	"math"
	"slices"

	"clx/internal/align"
	"clx/internal/pattern"
	"clx/internal/unifi"
)

// PrintableChars is c in Eq. 5: the size of the printable character set used
// to encode ConstStr parameters.
const PrintableChars = 95

// OpCost returns log L(f) of Eq. 5 for a single operator: 2·log|Pcand| for
// an Extract and |s̃|·log c for a ConstStr. Logarithms are base 2 (bits).
func OpCost(op unifi.Op, sourceLen int) float64 {
	switch op := op.(type) {
	case unifi.Extract:
		if sourceLen < 2 {
			sourceLen = 2 // log 1 = 0 would make all extracts free
		}
		return 2 * math.Log2(float64(sourceLen))
	case unifi.ConstStr:
		return float64(len(op.S)) * math.Log2(PrintableChars)
	}
	return math.Inf(1)
}

// PlanDL returns L(E, T) = L(E) + L(T|E) of Eq. 3: the model length
// |E|·log m (m = number of distinct operator types used by the plan) plus
// the sum of operator parameter costs.
func PlanDL(p unifi.Plan, sourceLen int) float64 {
	var hasExtract, hasConst bool
	data := 0.0
	for _, op := range p.Ops {
		switch op.(type) {
		case unifi.Extract:
			hasExtract = true
		case unifi.ConstStr:
			hasConst = true
		}
		data += OpCost(op, sourceLen)
	}
	m := 0
	if hasExtract {
		m++
	}
	if hasConst {
		m++
	}
	if m == 0 {
		return 0
	}
	model := float64(len(p.Ops)) * math.Log2(float64(m))
	return model + data
}

// Ranked is a plan with its description length and ranking metadata.
type Ranked struct {
	Plan unifi.Plan
	DL   float64
	// Monotone records whether the plan's extracts read the source
	// strictly left to right; monotone plans rank first (see TopK).
	Monotone bool
	// NoReuse records whether no source token is extracted twice; among
	// non-monotone plans, reorderings rank above token-reusing plans.
	NoReuse bool
	// LitExtracts counts multi-character literal source tokens the plan
	// copies into the target; plans copying less boilerplate rank higher.
	LitExtracts int
}

// TopK enumerates complete transformation plans of the alignment DAG
// against the source pattern and returns up to k of them ordered by the
// composite ranking documented on Ranked. Ties are broken by preferring
// plans with fewer operators, then plans whose extracts read the source
// left to right at earlier positions — the "good guess" order noted in
// §6.4.
//
// Enumeration uses dynamic programming over the DAG with an additive
// per-operator bound (each op charged log 2 + OpCost), then reranks the
// candidate pool with the exact non-additive formula of Eq. 3. The pool is
// overprovisioned (4k+8 suffixes per node) so the exact top k is recovered
// in all practical cases.
//
// Each node keeps its pool best suffixes in the total order (bound,
// lessOps, enumeration order) — exactly what a stable sort of every
// candidate followed by truncation keeps — selected with a bounded
// max-heap. A kept suffix is one cell of a shared arena: an operator plus
// a link to a kept suffix of a later node, so no candidate copies an
// operator slice. A node's list is sorted by bound and float addition is
// monotone, so walking a list stops at the first tail whose bound already
// exceeds the worst kept candidate: no later tail could be kept either.
// Operator slices are built only for the node-0 survivors.
func TopK(d *align.DAG, src pattern.Pattern, k int) []Ranked {
	if k <= 0 {
		return nil
	}
	sourceLen := src.Len()
	pool := k*4 + 8
	s := selector{cells: []cell{{op: -1, next: -1}}}
	var first []int32
	s.ops, first = outOps(d, sourceLen)
	// lists[i] is the cell range [lo, hi) of node i's kept suffixes, best
	// first. Node N keeps only the empty suffix, the sentinel cell 0.
	lists := make([][2]int32, d.N+1)
	lists[d.N] = [2]int32{0, 1}
	for i := d.N - 1; i >= 0; i-- {
		s.heap = s.heap[:0]
		seq := int32(0)
		for o := first[i]; o < first[i+1]; o++ {
			eo := &s.ops[o]
			tails := lists[eo.to]
			for t := tails[0]; t < tails[1]; t++ {
				c := eo.cost + s.cells[t].cost
				if len(s.heap) == pool && c > s.heap[0].cost {
					break
				}
				s.offer(cand{cost: c, op: o, tail: t, seq: seq}, pool)
				seq++
			}
		}
		lists[i] = s.keep()
	}

	kept := lists[0]
	total := 0
	for t := kept[0]; t < kept[1]; t++ {
		for c := t; s.cells[c].op >= 0; c = s.cells[c].next {
			total++
		}
	}
	backing := make([]unifi.Op, total)
	out := make([]Ranked, 0, kept[1]-kept[0])
	off := 0
	for t := kept[0]; t < kept[1]; t++ {
		start := off
		for c := t; s.cells[c].op >= 0; c = s.cells[c].next {
			backing[off] = s.ops[s.cells[c].op].op
			off++
		}
		var plan unifi.Plan
		if off > start {
			plan.Ops = backing[start:off:off]
		}
		out = append(out, Ranked{
			Plan:        plan,
			DL:          PlanDL(plan, sourceLen),
			Monotone:    Monotone(plan),
			NoReuse:     noReuse(plan),
			LitExtracts: litExtracts(plan, src),
		})
	}
	slices.SortStableFunc(out, compareRanked)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// compareRanked is the final ranking. Monotone plans — extracts reading
// the source strictly left to right — rank above non-monotone ones
// regardless of DL. Pure Eq-3 MDL can otherwise prefer degenerate plans
// that reuse one source span repeatedly (a single-op-type plan pays no
// model bits); reading order is the "good guess" §6.4 relies on, and the
// reordered alternatives remain available for repair. Among non-monotone
// plans, those that never extract the same source token twice (field
// reorderings like "Last, F.") rank above token-reusing ones. Plans
// extracting fewer constant (literal) source tokens rank higher: the
// variable parts of a format carry its data, the frozen boilerplate
// ('University', 'of') rarely does — and a plan extracting only literals
// always has an equivalent ConstStr form, so this costs nothing elsewhere.
func compareRanked(a, b Ranked) int {
	switch {
	case a.Monotone != b.Monotone:
		return boolFirst(a.Monotone)
	case a.NoReuse != b.NoReuse:
		return boolFirst(a.NoReuse)
	case a.LitExtracts != b.LitExtracts:
		return cmp.Compare(a.LitExtracts, b.LitExtracts)
	case a.DL != b.DL:
		return cmp.Compare(a.DL, b.DL)
	case len(a.Plan.Ops) != len(b.Plan.Ops):
		return cmp.Compare(len(a.Plan.Ops), len(b.Plan.Ops))
	case lessOps(a.Plan.Ops, b.Plan.Ops):
		return -1
	case lessOps(b.Plan.Ops, a.Plan.Ops):
		return 1
	}
	return 0
}

// boolFirst orders two different flags: the one that is set comes first.
func boolFirst(a bool) int {
	if a {
		return -1
	}
	return 1
}

// edgeOp is one candidate operator of an out-edge.
type edgeOp struct {
	op  unifi.Op
	key [3]int // opKey(op)
	// cost is the additive per-operator bound, log 2 + OpCost.
	cost float64
	to   int32 // the edge's end node
}

// outOps lists every operator of the DAG grouped by the node its edge
// leaves, edges in (From, To) order and operators in DAG order — the
// enumeration order of the candidates. Node i's operators are
// ops[first[i]:first[i+1]].
func outOps(d *align.DAG, sourceLen int) (ops []edgeOp, first []int32) {
	edges := make([]align.Edge, 0, len(d.Ops))
	first = make([]int32, d.N+1)
	n := 0
	for e, es := range d.Ops {
		edges = append(edges, e)
		first[e.From+1] += int32(len(es))
		n += len(es)
	}
	for i := 1; i <= d.N; i++ {
		first[i] += first[i-1]
	}
	slices.SortFunc(edges, func(a, b align.Edge) int {
		if a.From != b.From {
			return cmp.Compare(a.From, b.From)
		}
		return cmp.Compare(a.To, b.To)
	})
	ops = make([]edgeOp, 0, n)
	for _, e := range edges {
		for _, op := range d.Ops[e] {
			ops = append(ops, edgeOp{op: op, key: opKey(op), cost: 1 + OpCost(op, sourceLen), to: int32(e.To)})
		}
	}
	return ops, first
}

// cell is one kept suffix: the operator ops[op] followed by the suffix in
// cell next. The sentinel cell 0 (op < 0) is the empty suffix.
type cell struct {
	cost     float64 // the suffix's additive bound
	op, next int32
}

// cand is a candidate suffix of the node being ranked: ops[op] followed
// by the kept suffix in cell tail; seq is its enumeration order.
type cand struct {
	cost          float64
	op, tail, seq int32
}

// selector ranks one node's candidates over the shared cell arena.
type selector struct {
	ops   []edgeOp
	cells []cell
	// heap holds the best candidates seen so far as a max-heap: heap[0]
	// is the worst kept one.
	heap []cand
}

// compare orders candidates by bound, then lessOps over their operator
// sequences, then enumeration order — a total order.
func (s *selector) compare(a, b *cand) int {
	if a.cost != b.cost {
		return cmp.Compare(a.cost, b.cost)
	}
	if a.op != b.op {
		if ka, kb := s.ops[a.op].key, s.ops[b.op].key; ka != kb {
			return slices.Compare(ka[:], kb[:])
		}
	}
	if c := s.compareSuffixes(a.tail, b.tail); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// compareSuffixes is lessOps over the operator sequences of two kept
// suffixes, as a three-way comparison. Once both walks reach the same
// cell the rest is shared and the sequences are equal.
func (s *selector) compareSuffixes(a, b int32) int {
	for a != b {
		ca, cb := &s.cells[a], &s.cells[b]
		switch {
		case ca.op < 0:
			return -1
		case cb.op < 0:
			return 1
		}
		if ka, kb := s.ops[ca.op].key, s.ops[cb.op].key; ka != kb {
			return slices.Compare(ka[:], kb[:])
		}
		a, b = ca.next, cb.next
	}
	return 0
}

// offer keeps c if fewer than pool candidates are kept or c ranks before
// the worst kept one, which it then replaces.
func (s *selector) offer(c cand, pool int) {
	h := s.heap
	if len(h) < pool {
		h = append(h, c)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if s.compare(&h[p], &h[i]) >= 0 {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		s.heap = h
		return
	}
	if s.compare(&c, &h[0]) >= 0 {
		return
	}
	h[0] = c
	for i := 0; ; {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if j+1 < len(h) && s.compare(&h[j], &h[j+1]) < 0 {
			j++
		}
		if s.compare(&h[i], &h[j]) >= 0 {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// keep sorts the kept candidates best first and appends them to the cell
// arena, returning their range.
func (s *selector) keep() [2]int32 {
	slices.SortFunc(s.heap, func(a, b cand) int { return s.compare(&a, &b) })
	lo := int32(len(s.cells))
	for _, c := range s.heap {
		s.cells = append(s.cells, cell{cost: c.cost, op: c.op, next: c.tail})
	}
	return [2]int32{lo, int32(len(s.cells))}
}

// litExtracts counts, across the plan's extracts, how many multi-character
// literal source tokens are pulled into the target. Single-character
// punctuation literals (separators spanned by a combined extract) are not
// counted — spanning a '/' is normal, copying 'University' is suspicious.
func litExtracts(p unifi.Plan, src pattern.Pattern) int {
	n := 0
	for _, op := range p.Ops {
		e, ok := op.(unifi.Extract)
		if !ok {
			continue
		}
		for j := e.I; j <= e.J && j <= src.Len(); j++ {
			t := src.At(j - 1)
			if t.IsLiteral() && len(t.Lit) > 1 {
				n++
			}
		}
	}
	return n
}

// noReuse reports whether no source token is extracted more than once:
// no two extracts cover overlapping token ranges.
func noReuse(p unifi.Plan) bool {
	for i, op := range p.Ops {
		e, ok := op.(unifi.Extract)
		if !ok || e.I > e.J {
			continue
		}
		for _, prev := range p.Ops[:i] {
			if f, ok := prev.(unifi.Extract); ok && f.I <= f.J && e.I <= f.J && f.I <= e.J {
				return false
			}
		}
	}
	return true
}

// Monotone reports whether the plan's extracts read the source pattern
// strictly left to right: each extract starts after the previous one ends.
func Monotone(p unifi.Plan) bool {
	last := 0
	for _, op := range p.Ops {
		e, ok := op.(unifi.Extract)
		if !ok {
			continue
		}
		if e.I <= last {
			return false
		}
		last = e.J
	}
	return true
}

// lessOps orders operator sequences preferring in-order, early source
// positions: the deterministic tie-break for equal description lengths.
func lessOps(a, b []unifi.Op) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		ka, kb := opKey(a[i]), opKey(b[i])
		for d := 0; d < len(ka); d++ {
			if ka[d] != kb[d] {
				return ka[d] < kb[d]
			}
		}
	}
	return len(a) < len(b)
}

func opKey(op unifi.Op) [3]int {
	switch op := op.(type) {
	case unifi.Extract:
		return [3]int{0, op.I, op.J}
	case unifi.ConstStr:
		return [3]int{1, len(op.S), 0}
	}
	return [3]int{2, 0, 0}
}
