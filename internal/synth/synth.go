// Package synth implements the UniFi program synthesis of paper §6
// (Algorithm 2): it traverses the pattern cluster hierarchy top-down,
// validates candidate source patterns with the token-frequency count
// (Eq. 1–2), aligns each candidate against the target (Algorithm 3), ranks
// the resulting atomic transformation plans by description length (§6.3),
// deduplicates equivalent plans (Appendix B), and assembles the final
// Switch program. Program repair (§6.4) replaces a source's default plan
// with one of its ranked alternatives.
package synth

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"clx/internal/align"
	"clx/internal/cluster"
	"clx/internal/mdl"
	"clx/internal/parallel"
	"clx/internal/pattern"
	"clx/internal/rematch"
	"clx/internal/token"
	"clx/internal/unifi"
)

// Options configure synthesis.
type Options struct {
	// K is the number of ranked transformation plans kept per source
	// pattern, including the default (paper: "we also list the other k
	// transformation plans with lowest description lengths").
	K int
	// HierarchicalCount makes validate credit subsumed classes (<U>/<L>
	// count toward <A>); the paper counts classes exactly. Ablation option.
	HierarchicalCount bool
	// DisableValidate skips the Eq-2 pruning and descends to leaves,
	// attempting alignment everywhere. Ablation option.
	DisableValidate bool
	// DisableCombine uses single-token alignment only (no sequential
	// extract combining). Ablation option.
	DisableCombine bool
	// Workers bounds the goroutine fan-out of synthesis and transform: the
	// per-source trySolve calls of Algorithm 2 are independent, as are the
	// per-row applications of the synthesized program. 0 means one worker
	// per CPU, 1 runs serially. Output is byte-identical for every worker
	// count.
	Workers int
}

// DefaultOptions returns the options used by the CLX prototype.
func DefaultOptions() Options { return Options{K: 12} }

// SourceSynthesis is the synthesis outcome for one candidate source pattern.
type SourceSynthesis struct {
	// Source is the candidate source pattern (a node of the hierarchy).
	Source pattern.Pattern
	// Node is the hierarchy node the pattern came from.
	Node *cluster.Node
	// Plans are the deduplicated transformation plans in ascending
	// description-length order; Plans[Chosen] is in effect.
	Plans []mdl.Ranked
	// Chosen indexes the currently selected plan (0 = MDL default).
	Chosen int
}

// Plan returns the currently selected plan.
func (s *SourceSynthesis) Plan() unifi.Plan { return s.Plans[s.Chosen].Plan }

// Result is the outcome of Synthesize.
type Result struct {
	// Target is the labeled target pattern.
	Target pattern.Pattern
	// Sources are the solved source candidates in hierarchy traversal
	// order (Qsolved of Algorithm 2).
	Sources []*SourceSynthesis
	// CleanRows are input rows that already match the target pattern and
	// are left untouched.
	CleanRows []int
	// UnmatchedRows are input rows covered by no source candidate; they
	// are left unchanged and flagged for review (§6.1).
	UnmatchedRows []int
	// Hierarchy is the profiled input.
	Hierarchy *cluster.Hierarchy

	opts Options
}

// synthesizeCalls counts Synthesize invocations process-wide. The
// verify-once / apply-many split promises that serving a stored program
// never re-runs Algorithm 2; tests pin that promise by reading the counter
// around an apply path.
var synthesizeCalls atomic.Int64

// SynthesizeCalls returns the number of Synthesize (Algorithm 2) runs in
// this process.
func SynthesizeCalls() int64 { return synthesizeCalls.Load() }

// Synthesize runs Algorithm 2 over the hierarchy h with the labeled target
// pattern.
func Synthesize(h *cluster.Hierarchy, target pattern.Pattern, opts Options) *Result {
	synthesizeCalls.Add(1)
	if opts.K <= 0 {
		opts.K = DefaultOptions().K
	}
	res := &Result{Target: target, Hierarchy: h, opts: opts}

	// Clean-row detection matches every row against one pattern: shard the
	// rows, share one cached compiled target across shards (and with the
	// later Transform).
	tgt := rematch.CompileCached(target.Tokens())
	clean := make([]bool, len(h.Data))
	parallel.For(opts.Workers, len(h.Data), func(i int) {
		clean[i] = tgt.Matches(h.Data[i])
	})
	for i, c := range clean {
		if c {
			res.CleanRows = append(res.CleanRows, i)
		}
	}

	// Qunsolved seeded with the hierarchy roots (a virtual root's
	// children). The serial algorithm pops nodes FIFO, but each node's
	// outcome (skip / solved / descend) depends only on the node itself —
	// never on the outcome of another node — so every frontier batch fans
	// the expensive trySolve calls out across workers and then reduces the
	// outcomes serially in queue order. Source order, unmatched-row order
	// and the enqueue order of children are exactly those of the serial
	// traversal, for any worker count.
	queue := append([]*cluster.Node{}, h.Roots()...)
	for len(queue) > 0 {
		batch := queue
		queue = nil
		outcomes := make([]synthOutcome, len(batch))
		parallel.For(opts.Workers, len(batch), func(i int) {
			outcomes[i] = solveNode(batch[i], target, clean, opts)
		})
		for i, node := range batch {
			o := outcomes[i]
			switch {
			case o.skip:
				// Nothing to transform under this node, or identity with
				// the target; rows handled via CleanRows.
			case o.ss != nil:
				res.Sources = append(res.Sources, o.ss)
			case len(node.Children) == 0:
				// Rejected leaf: its rows match no source candidate.
				for _, c := range node.Leaves {
					for _, ri := range c.Rows {
						if !clean[ri] {
							res.UnmatchedRows = append(res.UnmatchedRows, ri)
						}
					}
				}
			default:
				queue = append(queue, node.Children...)
			}
		}
	}
	return res
}

// synthOutcome is the per-node result of one frontier batch: skip (all rows
// clean or identity with the target), solved (ss != nil), or neither —
// descend into children / flag leaf rows.
type synthOutcome struct {
	ss   *SourceSynthesis
	skip bool
}

// solveNode classifies one hierarchy node; it only reads the node, the
// target and the frozen clean set (a dense per-row bitmap — the row scans
// here are hot, and slice indexing beats map lookups), so frontier batches
// may run it concurrently.
func solveNode(node *cluster.Node, target pattern.Pattern, clean []bool, opts Options) synthOutcome {
	if nodeAllClean(node, clean) {
		return synthOutcome{skip: true}
	}
	if node.Pattern.Equal(target) {
		return synthOutcome{skip: true}
	}
	if ss, ok := trySolve(node, target, opts); ok {
		return synthOutcome{ss: ss}
	}
	return synthOutcome{}
}

func nodeAllClean(n *cluster.Node, clean []bool) bool {
	for _, c := range n.Leaves {
		for _, ri := range c.Rows {
			if !clean[ri] {
				return false
			}
		}
	}
	return true
}

// trySolve validates the node's pattern as a source candidate and, when it
// qualifies, synthesizes its ranked plans.
func trySolve(node *cluster.Node, target pattern.Pattern, opts Options) (*SourceSynthesis, bool) {
	src := node.Pattern
	if !opts.DisableValidate && !Validate(src, target, opts.HierarchicalCount) {
		return nil, false
	}
	var dag *align.DAG
	if opts.DisableCombine {
		dag = align.AlignSingle(target, src)
	} else {
		dag = align.Align(target, src)
	}
	if !dag.Complete() {
		// Validation passed but no full plan exists (e.g. the pattern is
		// too general, §6.1 reason 3): treat as unqualified.
		return nil, false
	}
	// Overprovision before deduplication: many ranked plans collapse into
	// one equivalence class (Extract of a literal ≡ ConstStr), and the
	// correct reordering for ambiguous sources can sit far down the raw
	// list.
	pool := opts.K * 8
	if pool < 64 {
		pool = 64
	}
	ranked := dedup(mdl.TopK(dag, src, pool), src, opts.K)
	if len(ranked) == 0 {
		return nil, false
	}
	return &SourceSynthesis{Source: src, Node: node, Plans: ranked}, true
}

// PlansFor runs the per-source half of Algorithm 2 directly: validate the
// source pattern, align it against the target and return the ranked,
// deduplicated plans (empty when the pattern is rejected or no complete
// plan exists). Used by the simulated user's drill-down and the
// RegexReplace oracle.
func PlansFor(src, target pattern.Pattern, opts Options) []mdl.Ranked {
	if opts.K <= 0 {
		opts.K = DefaultOptions().K
	}
	node := &cluster.Node{Pattern: src}
	ss, ok := trySolve(node, target, opts)
	if !ok {
		return nil
	}
	return ss.Plans
}

// Validate implements V(p1, p2) of Eq. 2: p1 qualifies as a source
// candidate for target p2 if for every base token class the class frequency
// in p1 is at least that in p2. hierarchical selects the subsumption-aware
// counting variant.
func Validate(src, target pattern.Pattern, hierarchical bool) bool {
	for _, c := range token.BaseClasses {
		var qs, qt int
		if hierarchical {
			qs, qt = src.FreqHierarchical(c), target.FreqHierarchical(c)
		} else {
			// The source side also credits characters inside discovered
			// constants ('CPT-' still supplies <U> tokens); the target
			// side keeps the paper's base-token count, since target
			// literals come from ConstStr.
			qs, qt = src.FreqWithLiterals(c), target.Freq(c)
		}
		if qs < qt {
			return false
		}
	}
	return true
}

// Dedup removes plans equivalent to an earlier (simpler, lower-DL) plan in
// the list, per Definition 6.2 and Appendix B: plans are equivalent when,
// after splitting multi-token extracts into single-token extracts, they
// agree operator-by-operator up to swapping an Extract of a constant literal
// source token with the ConstStr of the same content.
func Dedup(ranked []mdl.Ranked, src pattern.Pattern) []mdl.Ranked {
	return dedup(ranked, src, len(ranked))
}

// dedup is Dedup stopping once max plans are kept: the first max plans of
// the deduplicated list, without keying the plans after them.
func dedup(ranked []mdl.Ranked, src pattern.Pattern, max int) []mdl.Ranked {
	seen := make(map[string]bool, len(ranked))
	out := ranked[:0:0]
	var key []byte
	lits := make([]string, src.Len())
	for _, r := range ranked {
		if len(out) == max {
			break
		}
		key = appendCanonicalKey(key[:0], r.Plan, src, lits)
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		out = append(out, r)
	}
	return out
}

// appendCanonicalKey appends a plan's canonical key to key: its sequence
// of single-token effects, with extracts of fixed literal source tokens
// replaced by their constant content. Two plans are equivalent iff their
// keys are equal. lits caches the expanded fixed literals of src by token
// position.
func appendCanonicalKey(key []byte, p unifi.Plan, src pattern.Pattern, lits []string) []byte {
	for _, op := range p.Ops {
		switch op := op.(type) {
		case unifi.ConstStr:
			key = appendConst(key, op.S)
		case unifi.Extract:
			for j := op.I; j <= op.J; j++ {
				t := src.At(j - 1)
				if t.IsLiteral() && t.Quant != token.Plus {
					if lits[j-1] == "" {
						lits[j-1] = t.Expand()
					}
					key = appendConst(key, lits[j-1])
				} else {
					key = append(key, 'X')
					key = strconv.AppendInt(key, int64(j), 10)
					key = append(key, ';')
				}
			}
		}
	}
	return key
}

// appendConst appends the key of a constant: C, s quoted as by %q, ';'.
func appendConst(key []byte, s string) []byte {
	key = append(key, 'C')
	key = strconv.AppendQuote(key, s)
	return append(key, ';')
}

// Program assembles the UniFi Switch program from the currently selected
// plans.
func (r *Result) Program() unifi.Program {
	prog := unifi.Program{}
	for _, s := range r.Sources {
		prog.Cases = append(prog.Cases, unifi.Case{Source: s.Source, Plan: s.Plan()})
	}
	return prog
}

// Repair selects the planIdx-th ranked alternative for source srcIdx
// (paper §6.4).
func (r *Result) Repair(srcIdx, planIdx int) error {
	if srcIdx < 0 || srcIdx >= len(r.Sources) {
		return fmt.Errorf("synth: source index %d out of range [0,%d)", srcIdx, len(r.Sources))
	}
	s := r.Sources[srcIdx]
	if planIdx < 0 || planIdx >= len(s.Plans) {
		return fmt.Errorf("synth: plan index %d out of range [0,%d) for source %s",
			planIdx, len(s.Plans), s.Source)
	}
	s.Chosen = planIdx
	return nil
}

// Refine replaces source srcIdx with solved entries for its child patterns
// in the cluster hierarchy — the drill-down a user performs when none of a
// generic pattern's suggested plans is right (§4.2's hierarchical display
// exists exactly for this). Children that fail validation or alignment
// descend further; leaves that cannot be solved leave their rows unmatched.
func (r *Result) Refine(srcIdx int) error {
	if srcIdx < 0 || srcIdx >= len(r.Sources) {
		return fmt.Errorf("synth: source index %d out of range [0,%d)", srcIdx, len(r.Sources))
	}
	node := r.Sources[srcIdx].Node
	if node == nil || len(node.Children) == 0 {
		return fmt.Errorf("synth: source %s has no child patterns to refine into", r.Sources[srcIdx].Source)
	}
	var solved []*SourceSynthesis
	queue := append([]*cluster.Node{}, node.Children...)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.Pattern.Equal(r.Target) {
			continue
		}
		if ss, ok := trySolve(n, r.Target, r.opts); ok {
			solved = append(solved, ss)
			continue
		}
		if len(n.Children) == 0 {
			for _, c := range n.Leaves {
				r.UnmatchedRows = append(r.UnmatchedRows, c.Rows...)
			}
			continue
		}
		queue = append(queue, n.Children...)
	}
	r.Sources = append(r.Sources[:srcIdx], append(solved, r.Sources[srcIdx+1:]...)...)
	return nil
}

// Transform applies the synthesized program to the profiled data: rows
// already matching the target are copied through; rows covered by no source
// are copied through and flagged. Rows are independent, so application is
// sharded across the configured workers; output rows are written by index
// and flagged indices gathered in shard order, so both are byte-identical
// to a serial scan.
func (r *Result) Transform() (out []string, flagged []int) {
	data := r.Hierarchy.Data
	prog := r.Program().Compile()
	target := rematch.CompileCached(r.Target.Tokens())
	out = make([]string, len(data))
	flagged = parallel.Gather(r.opts.Workers, len(data), func(lo, hi int, emit func(int)) {
		for i := lo; i < hi; i++ {
			s := data[i]
			if target.Matches(s) {
				out[i] = s
				continue
			}
			t, err := prog.Apply(s)
			if err != nil {
				out[i] = s
				emit(i)
				continue
			}
			out[i] = t
		}
	})
	return out, flagged
}
