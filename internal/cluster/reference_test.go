package cluster

// The reference implementation: the per-row, string-keyed profiling path
// this package shipped before pattern interning and counted clustering.
// It is kept verbatim (serialized where the original fanned out) as the
// executable specification the optimized path must reproduce bit for bit —
// every equivalence test below diffs full hierarchies against it.

import (
	"fmt"
	"strings"
	"testing"

	"clx/internal/dataset"
	"clx/internal/pattern"
	"clx/internal/token"
)

// referenceInitial is the pre-interning Initial: tokenize every row,
// group by rendered pattern key, then rewrite constant tokens.
func referenceInitial(data []string, opts Options) []*Cluster {
	pats := make([]pattern.Pattern, len(data))
	keys := make([]string, len(data))
	for i := range data {
		pats[i] = pattern.FromString(data[i])
		keys[i] = pats[i].Key()
	}
	byKey := make(map[string]*Cluster)
	var order []*Cluster
	for i, s := range data {
		c, ok := byKey[keys[i]]
		if !ok {
			c = &Cluster{Pattern: pats[i], Sample: s}
			byKey[keys[i]] = c
			order = append(order, c)
		}
		c.Rows = append(c.Rows, i)
	}
	if opts.DiscoverConstants {
		referenceDiscoverConstants(order, data, pats, opts)
	}
	return order
}

func referenceDiscoverConstants(clusters []*Cluster, data []string, pats []pattern.Pattern, opts Options) {
	rowsWith := make(map[string]int)
	for i, s := range data {
		spans, ok := pats[i].Match(s)
		if !ok {
			continue
		}
		seen := make(map[string]bool)
		for ti, t := range pats[i].Tokens() {
			if t.IsLiteral() {
				continue
			}
			seen[s[spans[ti].Start:spans[ti].End]] = true
		}
		for v := range seen {
			rowsWith[v]++
		}
	}
	frequent := func(v string) bool {
		return float64(rowsWith[v]) >= opts.MinConstantRatio*float64(len(data))
	}
	for _, c := range clusters {
		referenceClusterConstants(c, data, frequent, opts)
	}
}

func referenceClusterConstants(c *Cluster, data []string, frequent func(string) bool, opts Options) {
	if c.Count() < opts.MinConstantSupport {
		return
	}
	toks := c.Pattern.Tokens()
	spans, ok := c.Pattern.Match(data[c.Rows[0]])
	if !ok {
		return
	}
	newToks := make([]token.Token, len(toks))
	copy(newToks, toks)
	changed := false
	for ti, t := range toks {
		if t.IsLiteral() {
			continue
		}
		if l, fixed := t.FixedLen(); !fixed || l > opts.MaxConstantLen {
			continue
		}
		val := data[c.Rows[0]][spans[ti].Start:spans[ti].End]
		constant := true
		for _, ri := range c.Rows[1:] {
			if data[ri][spans[ti].Start:spans[ti].End] != val {
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

// referenceProfile is the pre-interning Profile: referenceInitial plus the
// string-keyed refine rounds.
func referenceProfile(data []string, opts Options) *Hierarchy {
	clusters := referenceInitial(data, opts)
	leaves := make([]*Node, len(clusters))
	for i, c := range clusters {
		leaves[i] = &Node{Pattern: c.Pattern, Level: 0, Leaves: []*Cluster{c}}
	}
	h := &Hierarchy{Levels: [][]*Node{leaves}, Clusters: clusters, Data: data}
	for level, g := range []Strategy{QuantToPlus, LettersToAlpha, AllToAlphaNum} {
		h.Levels = append(h.Levels, referenceRefine(h.Levels[level], g, level+1))
	}
	return h
}

func referenceRefine(children []*Node, g Strategy, level int) []*Node {
	parentOf := make([]pattern.Pattern, len(children))
	count := make(map[string]int)
	byKey := make(map[string]*Node)
	var order []string
	for i, c := range children {
		pp := Generalize(c.Pattern, g)
		parentOf[i] = pp
		k := pp.Key()
		if count[k] == 0 {
			order = append(order, k)
			byKey[k] = &Node{Pattern: pp, Level: level}
		}
		count[k] += len(c.Leaves)
	}
	for i := 1; i < len(order); i++ { // insertion sort = stable rank by coverage
		for j := i; j > 0 && count[order[j]] > count[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for i, c := range children {
		p := byKey[parentOf[i].Key()]
		p.Children = append(p.Children, c)
		p.Leaves = append(p.Leaves, c.Leaves...)
	}
	out := make([]*Node, len(order))
	for i, k := range order {
		out[i] = byKey[k]
	}
	return out
}

// hierarchyFingerprint serializes everything user-visible about a
// hierarchy: per-level node order, patterns, child/leaf wiring, and every
// cluster's exact row indices and sample.
func hierarchyFingerprint(h *Hierarchy) string {
	var b strings.Builder
	for i, c := range h.Clusters {
		fmt.Fprintf(&b, "cluster %d %s sample=%q rows=%v\n", i, c.Pattern.Key(), c.Sample, c.Rows)
	}
	for li, level := range h.Levels {
		for ni, n := range level {
			fmt.Fprintf(&b, "L%d[%d] %s level=%d children=%d leaves=[", li, ni, n.Pattern.Key(), n.Level, len(n.Children))
			for _, leaf := range n.Leaves {
				fmt.Fprintf(&b, " %s(%d)", leaf.Pattern.Key(), leaf.Count())
			}
			b.WriteString(" ]\n")
		}
	}
	return b.String()
}

// referenceColumns are the corpora the equivalence suite diffs over:
// dup-heavy, all-distinct, constant-rich, unicode, and degenerate shapes.
func referenceColumns() map[string][]string {
	tsRows, _ := dataset.TimesSquarePhones()
	dupHeavy := make([]string, 0, 10*len(tsRows))
	for i := 0; i < 10; i++ {
		dupHeavy = append(dupHeavy, tsRows...)
	}
	phones, _ := dataset.Phones(500, 6, 77)
	cols := map[string][]string{
		"phones":     phones,
		"timessq":    tsRows,
		"dup-heavy":  dupHeavy,
		"names":      dataset.Names(300, 3),
		"addresses":  dataset.Addresses(200, 9),
		"productids": dataset.ProductIDs(250, 5),
		"mixed": dataset.Mix(phones[:100], dataset.Names(100, 3),
			dataset.LogLines(50, 4)),
		"empties": {"", "", "a", "", "a1", ""},
		"unicode": {"café 12", "naïve 34", "café 12", "日本 999", "café 56"},
		"single":  {"only-one-row"},
		"empty":   {},
	}
	return cols
}

// TestProfileMatchesReference is the central equivalence theorem of the
// index-backed Profile: for every corpus, option set, and worker count,
// Profile emits a hierarchy byte-identical to the reference per-row
// implementation. The reference corpora are small enough to take one shard
// at any worker count; the large phone column takes one shard per worker.
func TestProfileMatchesReference(t *testing.T) {
	pinGOMAXPROCS(t, 4)
	cols := referenceColumns()
	cols["phones-large"], _ = dataset.Phones(4*minShardRows, 6, 77)
	for name, rows := range cols {
		for _, discover := range []bool{true, false} {
			opts := DefaultOptions()
			opts.DiscoverConstants = discover
			opts.Workers = 1
			want := hierarchyFingerprint(referenceProfile(rows, opts))
			for _, w := range []int{1, 2, 4, 8} {
				opts.Workers = w
				got := hierarchyFingerprint(Profile(rows, opts))
				if got != want {
					t.Errorf("%s discover=%v workers=%d: profile diverges from reference\ngot:\n%s\nwant:\n%s",
						name, discover, w, got, want)
				}
			}
		}
	}
}

// TestInitialMatchesReference covers Initial alone (the API surface synth
// and the daemon cluster endpoint use without the hierarchy).
func TestInitialMatchesReference(t *testing.T) {
	for name, rows := range referenceColumns() {
		opts := DefaultOptions()
		want := referenceInitial(rows, opts)
		got := Initial(rows, opts)
		if len(got) != len(want) {
			t.Errorf("%s: %d clusters, reference %d", name, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i].Pattern.Key() != want[i].Pattern.Key() ||
				got[i].Sample != want[i].Sample ||
				fmt.Sprint(got[i].Rows) != fmt.Sprint(want[i].Rows) {
				t.Errorf("%s cluster %d: got {%s %q %v}, want {%s %q %v}", name, i,
					got[i].Pattern.Key(), got[i].Sample, got[i].Rows,
					want[i].Pattern.Key(), want[i].Sample, want[i].Rows)
			}
		}
	}
}

// benchRows is the benchmark corpus: the 20k-row phone column the pipeline
// experiment uses, which is also adversarial for value deduplication
// (random digits make nearly every row distinct).
func benchRows(b *testing.B) []string {
	b.Helper()
	rows, _ := dataset.Phones(20000, 6, 77)
	return rows
}

func BenchmarkProfile(b *testing.B) {
	rows := benchRows(b)
	opts := DefaultOptions()
	opts.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Profile(rows, opts)
	}
}

func BenchmarkProfileReference(b *testing.B) {
	rows := benchRows(b)
	opts := DefaultOptions()
	opts.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceProfile(rows, opts)
	}
}
