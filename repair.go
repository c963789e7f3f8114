// Quantitatively-ranked repair (ROADMAP item 3, after "Quantitative
// Programming by Examples"): the paper ranks a source's alternative plans
// by description length alone (§6.3) and lets the user cycle through them
// (§6.4). RepairCandidates scores every ranked plan with measurable
// objectives a client can weigh instead of eyeballing regexes:
//
//   - Residual — how many of the source's rows the plan still leaves
//     outside the target pattern ("fewest flagged rows"): the dominant
//     objective, because a plan that fixes fewer rows is wrong whatever
//     its length.
//   - EditDistance — the op-level Levenshtein distance from the plan
//     currently in effect ("minimal program edit"): among equally
//     correct plans, prefer the smallest change to what the user already
//     verified.
//   - DL — the paper's description length, kept as the final tie-break
//     toward simpler programs.
//
// Candidates are returned best-first under the lexicographic order
// (Residual, EditDistance, DL); Score folds the same objectives into one
// display scalar with matching weights.
package clx

import (
	"sort"
	"strconv"

	"clx/internal/rematch"
	"clx/internal/replace"
	"clx/internal/synth"
	"clx/internal/token"
	"clx/internal/unifi"
)

// RepairCandidate is one ranked alternative plan for a source pattern,
// scored with the quantitative objectives above. Repair(Source, Alt)
// puts it in effect.
type RepairCandidate struct {
	// Source and Alt address the plan: Source indexes Sources(), Alt the
	// source's ranked plan list (the same indices Repair takes).
	Source int
	Alt    int
	// Op is the candidate rendered as the Replace operation the user
	// verifies.
	Op replace.Op
	// DL is the plan's description length (§6.3) — the paper's ranking.
	DL float64
	// Residual counts the source's not-yet-clean snapshot rows this plan
	// fails to land in the target pattern (apply error or off-target
	// output). The default plan of a solved source scores 0.
	Residual int
	// EditDistance is the op-level Levenshtein distance from the plan
	// currently in effect; the in-effect plan itself scores 0.
	EditDistance int
	// Score folds the objectives into one ascending display scalar:
	// Residual*1000 + EditDistance + DL/10000. The authoritative order is
	// the lexicographic (Residual, EditDistance, DL) sort of the returned
	// slice.
	Score float64
	// Selected marks the plan currently in effect.
	Selected bool
}

// RepairCandidates scores every ranked plan of source i against the
// snapshot rows that source covers and returns them best-first. It never
// mutates the transformation; pass a candidate's (Source, Alt) to Repair
// to adopt it. Out-of-range sources return nil.
func (t *Transformation) RepairCandidates(i int) []RepairCandidate {
	if i < 0 || i >= len(t.res.Sources) {
		return nil
	}
	src := t.res.Sources[i]
	cur := planOps(src.Plans[src.Chosen].Plan, src.Source)
	out := make([]RepairCandidate, len(src.Plans))
	for j, r := range src.Plans {
		out[j] = RepairCandidate{
			Source:       i,
			Alt:          j,
			Op:           replace.ExplainCase(unifi.Case{Source: src.Source, Plan: r.Plan}),
			DL:           r.DL,
			EditDistance: editDistance(cur, planOps(r.Plan, src.Source)),
			Selected:     j == src.Chosen,
		}
	}
	t.countResiduals(src, out)
	for j := range out {
		c := &out[j]
		c.Score = float64(c.Residual)*1000 + float64(c.EditDistance) + c.DL/1e4
	}
	sort.SliceStable(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.Residual != y.Residual {
			return x.Residual < y.Residual
		}
		if x.EditDistance != y.EditDistance {
			return x.EditDistance < y.EditDistance
		}
		if x.DL != y.DL {
			return x.DL < y.DL
		}
		return x.Alt < y.Alt
	})
	return out
}

// countResiduals sets cands[j].Residual to the number of the source's
// snapshot rows that plan j leaves outside the target. Rows already in
// the target (the synthesis-time clean set) are untouched by Run and do
// not count. Each row is matched against the source pattern once, and
// every plan renders from those shared spans into one reused buffer; a
// row the source does not match, or a plan that errors, counts as
// residual, as Plan.Apply's error would.
func (t *Transformation) countResiduals(src *synth.SourceSynthesis, cands []RepairCandidate) {
	if src.Node == nil {
		return
	}
	clean := make([]bool, len(t.data))
	for _, ri := range t.res.CleanRows {
		clean[ri] = true
	}
	source := rematch.CompileCached(src.Source.Tokens())
	target := rematch.CompileCached(t.res.Target.Tokens())
	var (
		spans []rematch.Span
		buf   []byte
	)
	for _, c := range src.Node.Leaves {
		for _, ri := range c.Rows {
			if clean[ri] {
				continue
			}
			v := t.data[ri]
			var ok bool
			spans, ok = source.MatchInto(v, spans[:0])
			for j, r := range src.Plans {
				if ok {
					var err error
					if buf, err = r.Plan.AppendSpans(buf[:0], v, spans); err == nil && target.MatchesBytes(buf) {
						continue
					}
				}
				cands[j].Residual++
			}
		}
	}
}

// planOps renders a plan as its sequence of single-token effects — the
// same canonical form synthesis deduplicates plans by (Appendix B):
// multi-token extracts split into per-token extracts, and extracts of
// fixed literal source tokens collapse into the constant they copy. Edit
// distance over this form measures semantic plan difference, not
// notation difference.
func planOps(p unifi.Plan, src Pattern) []string {
	var ops []string
	for _, op := range p.Ops {
		switch op := op.(type) {
		case unifi.ConstStr:
			ops = append(ops, "C"+strconv.Quote(op.S))
		case unifi.Extract:
			for j := op.I; j <= op.J; j++ {
				t := src.At(j - 1)
				if t.IsLiteral() && t.Quant != token.Plus {
					ops = append(ops, "C"+strconv.Quote(t.Expand()))
				} else {
					ops = append(ops, "X"+strconv.Itoa(j))
				}
			}
		}
	}
	return ops
}

// editDistance is the Levenshtein distance between two op sequences,
// two-row dynamic programming.
func editDistance(a, b []string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	curr := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		curr[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost
			if d := prev[j] + 1; d < m {
				m = d
			}
			if d := curr[j-1] + 1; d < m {
				m = d
			}
			curr[j] = m
		}
		prev, curr = curr, prev
	}
	return prev[len(b)]
}
