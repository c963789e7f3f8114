// Package cluster implements CLX pattern profiling (paper §4): initial
// clustering of raw strings by their tokenized patterns, constant-token
// discovery, and the agglomerative refinement (Algorithm 1) that builds the
// pattern cluster hierarchy of Figure 6.
package cluster

import (
	"sort"

	"clx/internal/intern"
	"clx/internal/pattern"
	"clx/internal/token"
)

// Cluster is a group of input rows sharing one data pattern.
type Cluster struct {
	// Pattern is the cluster's pattern label.
	Pattern pattern.Pattern
	// Rows are the indices into the input data of the cluster's members,
	// in first-seen order.
	Rows []int
	// Sample is the first member string, for display.
	Sample string
}

// Count returns the number of rows in the cluster.
func (c *Cluster) Count() int { return len(c.Rows) }

// Options configure profiling.
type Options struct {
	// DiscoverConstants enables constant-token discovery (§4.1 "Find
	// Constant Tokens"): within an initial cluster, a base-token position
	// whose value is identical across all members becomes a literal token.
	DiscoverConstants bool
	// MinConstantSupport is the minimum cluster size for constant-token
	// discovery; singleton clusters would otherwise freeze every token.
	MinConstantSupport int
	// MaxConstantLen caps the length of a discovered constant, so that a
	// cluster of two identical long strings does not collapse to a literal.
	MaxConstantLen int
	// MinConstantRatio is the fraction of all input rows that must contain
	// the candidate value before it is frozen. The paper's motivation is
	// corpus-level ("if most entities in a faculty name list contain
	// 'Dr.'"); without this, a name that happens to repeat inside one
	// small cluster would freeze and lose its extractable structure.
	MinConstantRatio float64
	// Workers bounds the goroutine fan-out of the data-parallel profiling
	// stages (tokenization, constant-token statistics and discovery): 0
	// means one worker per CPU, 1 runs serially. Output is byte-identical
	// for every worker count.
	Workers int
}

// DefaultOptions returns the options used by the CLX prototype.
func DefaultOptions() Options {
	return Options{
		DiscoverConstants:  true,
		MinConstantSupport: 3,
		MaxConstantLen:     12,
		MinConstantRatio:   0.3,
	}
}

// Initial tokenizes every string in data and groups equal patterns into
// clusters (§4.1), in first-seen order. With opts.DiscoverConstants set,
// constant base tokens are rewritten to literal tokens afterwards. It is
// the level-0 half of Profile, run on a fresh Index.
func Initial(data []string, opts Options) []*Cluster {
	ix := NewIndex(opts)
	ix.Add(data)
	return ix.clusters(&Stats{})
}

// coalesceConstants merges runs of adjacent fixed literal tokens with
// purely alphanumeric content into a single literal, so that e.g. the
// frozen 'D','r' tokens render as 'Dr' (paper §4.1). Punctuation literals
// stay separate: they both preserve the Fig. 3 style patterns and keep the
// constant extractable into base target tokens (a merged 'CPT-' could no
// longer produce a <U>+).
func coalesceConstants(toks []token.Token) []token.Token {
	alnum := func(s string) bool {
		for _, r := range s {
			if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
				return false
			}
		}
		return true
	}
	mergeable := func(t token.Token) bool {
		return t.IsLiteral() && t.Quant == 1 && alnum(t.Lit)
	}
	out := make([]token.Token, 0, len(toks))
	for i := 0; i < len(toks); {
		if !mergeable(toks[i]) {
			out = append(out, toks[i])
			i++
			continue
		}
		j := i
		lit := ""
		for j < len(toks) && mergeable(toks[j]) {
			lit += toks[j].Lit
			j++
		}
		if j > i+1 {
			out = append(out, token.Lit(lit))
		} else {
			out = append(out, toks[i])
		}
		i = j
	}
	return out
}

// Strategy is one generalization strategy g̃ of §4.2.
type Strategy int

const (
	// QuantToPlus turns every natural-number quantifier into '+'
	// (strategy 1).
	QuantToPlus Strategy = iota + 1
	// LettersToAlpha turns <L> and <U> tokens into <A> (strategy 2).
	LettersToAlpha
	// AllToAlphaNum turns <A>, <D> and the literals '-', ' ' and '_' into
	// <AN> (strategy 3).
	AllToAlphaNum
)

// Generalize returns the parent pattern of p under strategy g (the
// getParent of Algorithm 1). After class rewriting, adjacent tokens of the
// same base class are merged into a single '+' token, as in Figure 6.
func Generalize(p pattern.Pattern, g Strategy) pattern.Pattern {
	in := p.Tokens()
	out := make([]token.Token, 0, len(in))
	for _, t := range in {
		switch g {
		case QuantToPlus:
			if !t.IsLiteral() {
				t = token.Base(t.Class, token.Plus)
			}
		case LettersToAlpha:
			if t.Class == token.Lower || t.Class == token.Upper {
				t = token.Base(token.Alpha, t.Quant)
			}
		case AllToAlphaNum:
			if t.Class == token.Alpha || t.Class == token.Digit ||
				t.Class == token.Lower || t.Class == token.Upper {
				t = token.Base(token.AlphaNum, token.Plus)
			} else if t.IsLiteral() && (t.Lit == "-" || t.Lit == " " || t.Lit == "_") {
				t = token.Base(token.AlphaNum, token.Plus)
			}
		}
		// Merge adjacent base tokens of the same class into a single '+'
		// token (Fig. 6: <U>+<L>+ becomes one <A>+ under strategy 2).
		if n := len(out); n > 0 && !t.IsLiteral() && out[n-1].Class == t.Class {
			out[n-1] = token.Base(t.Class, token.Plus)
			continue
		}
		out = append(out, t)
	}
	return pattern.Of(out...)
}

// Node is one pattern cluster in the hierarchy: a pattern plus the leaf
// clusters it covers and its child nodes from the level below.
type Node struct {
	Pattern  pattern.Pattern
	Children []*Node
	// Level is 0 for leaves (initial clusters) up to 3 for the most
	// generic layer.
	Level int
	// Leaves are the initial clusters covered by this node.
	Leaves []*Cluster
}

// Rows returns the total number of input rows covered by the node.
func (n *Node) Rows() int {
	total := 0
	for _, c := range n.Leaves {
		total += c.Count()
	}
	return total
}

// Hierarchy is the pattern cluster hierarchy of §4.2: Levels[0] holds the
// leaf nodes (initial clusters) and each subsequent level the parent
// patterns produced by one refinement round. Roots are the nodes of the top
// level.
type Hierarchy struct {
	Levels [][]*Node
	// Clusters are the initial clusters, in first-seen order.
	Clusters []*Cluster
	// Data is the profiled input data.
	Data []string
}

// Roots returns the nodes of the most generic level.
func (h *Hierarchy) Roots() []*Node { return h.Levels[len(h.Levels)-1] }

// Profile runs the full two-phase profiling of §4: tokenization-based
// initial clustering followed by three rounds of agglomerative refinement
// with strategies 1–3.
func Profile(data []string, opts Options) *Hierarchy {
	h, _ := ProfileWithStats(data, opts)
	return h
}

// ProfileWithStats is Profile with per-phase timing and size statistics,
// for benchmarking and monitoring callers. It profiles through a fresh
// Index (index.go), the package's one profiling plan.
func ProfileWithStats(data []string, opts Options) (*Hierarchy, *Stats) {
	ix := NewIndex(opts)
	ix.Add(data)
	return ix.ProfileWithStats()
}

// refine is Algorithm 1: it clusters the patterns of one level into parent
// patterns under strategy g, keeping parents in decreasing order of how many
// children they cover. Parent identity is an interned pattern id, so the
// counted merge compares integers, never rendered pattern strings.
func refine(children []*Node, g Strategy, level int, tbl *intern.Table) []*Node {
	parentOf := make([]intern.PatternID, len(children))
	count := make(map[intern.PatternID]int)
	byID := make(map[intern.PatternID]*Node)
	var order []intern.PatternID
	for i, c := range children {
		pp := Generalize(c.Pattern, g)
		id := tbl.Intern(pp.Tokens())
		parentOf[i] = id
		if count[id] == 0 {
			order = append(order, id)
			byID[id] = &Node{Pattern: pp, Level: level}
		}
		count[id] += len(c.Leaves) // weight by covered leaf patterns
	}
	// Rank parent patterns by coverage, high to low (Alg 1 line 7); ties
	// keep first-seen order for determinism.
	sort.SliceStable(order, func(a, b int) bool {
		return count[order[a]] > count[order[b]]
	})
	for i, c := range children {
		p := byID[parentOf[i]]
		p.Children = append(p.Children, c)
		p.Leaves = append(p.Leaves, c.Leaves...)
	}
	out := make([]*Node, len(order))
	for i, id := range order {
		out[i] = byID[id]
	}
	return out
}

// FindLevel returns the hierarchy node with the given pattern at the given
// level, or nil.
func (h *Hierarchy) FindLevel(level int, p pattern.Pattern) *Node {
	if level < 0 || level >= len(h.Levels) {
		return nil
	}
	for _, n := range h.Levels[level] {
		if n.Pattern.Equal(p) {
			return n
		}
	}
	return nil
}

// Find returns the first node matching p at any level, searching leaves
// first.
func (h *Hierarchy) Find(p pattern.Pattern) *Node {
	for level := range h.Levels {
		if n := h.FindLevel(level, p); n != nil {
			return n
		}
	}
	return nil
}
