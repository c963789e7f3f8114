package mdl

import (
	"sort"

	"clx/internal/align"
	"clx/internal/pattern"
	"clx/internal/unifi"
)

// referenceTopK is the original enumeration of TopK: at every DAG node it
// copies an operator slice for each candidate suffix, stable-sorts all
// candidates and truncates to the pool. It is kept, test-only, as the
// oracle the bounded selection in TopK must match exactly.
func referenceTopK(d *align.DAG, src pattern.Pattern, k int) []Ranked {
	sourceLen := src.Len()
	if k <= 0 {
		return nil
	}
	pool := k*4 + 8
	// suffix[i] holds the best partial plans from node i to node N.
	type partial struct {
		ops  []unifi.Op
		cost float64
	}
	suffix := make([][]partial, d.N+1)
	suffix[d.N] = []partial{{}}
	outEdges := make(map[int][]align.Edge)
	for _, e := range d.Edges() {
		outEdges[e.From] = append(outEdges[e.From], e)
	}
	for i := d.N - 1; i >= 0; i-- {
		var cands []partial
		for _, e := range outEdges[i] {
			for _, op := range d.Ops[e] {
				c := 1 + OpCost(op, sourceLen) // log2(2) = 1 per op bound
				for _, tail := range suffix[e.To] {
					ops := make([]unifi.Op, 0, 1+len(tail.ops))
					ops = append(ops, op)
					ops = append(ops, tail.ops...)
					cands = append(cands, partial{ops, c + tail.cost})
				}
			}
		}
		sort.SliceStable(cands, func(a, b int) bool {
			if cands[a].cost != cands[b].cost {
				return cands[a].cost < cands[b].cost
			}
			return lessOps(cands[a].ops, cands[b].ops)
		})
		if len(cands) > pool {
			cands = cands[:pool]
		}
		suffix[i] = cands
	}
	out := make([]Ranked, 0, len(suffix[0]))
	for _, p := range suffix[0] {
		plan := unifi.Plan{Ops: p.ops}
		out = append(out, Ranked{
			Plan:        plan,
			DL:          PlanDL(plan, sourceLen),
			Monotone:    Monotone(plan),
			NoReuse:     referenceNoReuse(plan),
			LitExtracts: litExtracts(plan, src),
		})
	}
	sort.SliceStable(out, func(a, b int) bool {
		// Monotone plans — extracts reading the source strictly left to
		// right — rank above non-monotone ones regardless of DL. Pure
		// Eq-3 MDL can otherwise prefer degenerate plans that reuse one
		// source span repeatedly (a single-op-type plan pays no model
		// bits); reading order is the "good guess" §6.4 relies on, and
		// the reordered alternatives remain available for repair. Among
		// non-monotone plans, those that never extract the same source
		// token twice (field reorderings like "Last, F.") rank above
		// token-reusing ones. Plans extracting fewer constant (literal)
		// source tokens rank higher: the variable parts of a format carry
		// its data, the frozen boilerplate ('University', 'of') rarely
		// does — and a plan extracting only literals always has an
		// equivalent ConstStr form, so this costs nothing elsewhere.
		if out[a].Monotone != out[b].Monotone {
			return out[a].Monotone
		}
		if out[a].NoReuse != out[b].NoReuse {
			return out[a].NoReuse
		}
		if out[a].LitExtracts != out[b].LitExtracts {
			return out[a].LitExtracts < out[b].LitExtracts
		}
		if out[a].DL != out[b].DL {
			return out[a].DL < out[b].DL
		}
		if len(out[a].Plan.Ops) != len(out[b].Plan.Ops) {
			return len(out[a].Plan.Ops) < len(out[b].Plan.Ops)
		}
		return lessOps(out[a].Plan.Ops, out[b].Plan.Ops)
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// referenceNoReuse is the original map-based noReuse.
func referenceNoReuse(p unifi.Plan) bool {
	used := make(map[int]bool)
	for _, op := range p.Ops {
		e, ok := op.(unifi.Extract)
		if !ok {
			continue
		}
		for j := e.I; j <= e.J; j++ {
			if used[j] {
				return false
			}
			used[j] = true
		}
	}
	return true
}
