// Column alignment and table transformation: mapping a source table onto
// the labeled target schema, synthesizing string-level CLX transformations
// for columns whose value formats differ.
package tablex

import (
	"fmt"
	"sort"
	"strings"

	clx "clx"

	"clx/internal/synth"
)

// ColumnMap is one aligned column pair.
type ColumnMap struct {
	// Src and Dst are column indices in the source and target tables.
	Src, Dst int
	// Score is the alignment evidence in [0, 1].
	Score float64
	// Transform is the synthesized string-level transformation for the
	// column's values; nil when the formats already agree.
	Transform *clx.Transformation
}

// Mapping is a full source-to-target column alignment.
type Mapping struct {
	// Columns are the aligned pairs, one per target column, ordered by
	// target column index.
	Columns []ColumnMap
	// UnmappedTarget lists target columns with no source evidence; the
	// transformed table carries empty cells there.
	UnmappedTarget []int
	// DroppedSource lists source columns mapped to no target.
	DroppedSource []int
}

// headerScore measures header-name evidence for a column pair.
func headerScore(src, dst string) float64 {
	switch {
	case src == dst && src != "":
		return 1
	case src != "" && dst != "" && (strings.HasPrefix(src, dst) || strings.HasPrefix(dst, src)):
		return 0.7
	case src != "" && dst != "" && (strings.Contains(src, dst) || strings.Contains(dst, src)):
		return 0.5
	default:
		return 0
	}
}

// patternScore measures value-pattern evidence: identical dominant patterns
// are strong evidence; a synthesizable relationship (validate passes both
// ways at the class-count level) is weaker evidence.
func patternScore(src, dst SchemaColumn) float64 {
	if src.Pattern.IsEmpty() || dst.Pattern.IsEmpty() {
		return 0
	}
	if src.Pattern.Equal(dst.Pattern) {
		return 1
	}
	if synth.Validate(src.Pattern, dst.Pattern, false) {
		return 0.4
	}
	return 0
}

// AlignTables aligns src's columns onto dst's, greedily by combined header
// and pattern evidence. Pairs with no evidence at all stay unmapped.
func AlignTables(src, dst Table) Mapping {
	ss, ds := SchemaOf(src), SchemaOf(dst)
	type cand struct {
		i, j  int
		score float64
	}
	var cands []cand
	for i, sc := range ss.Columns {
		for j, dc := range ds.Columns {
			score := 0.6*headerScore(sc.Header, dc.Header) + 0.4*patternScore(sc, dc)
			if score > 0 {
				cands = append(cands, cand{i, j, score})
			}
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		if cands[a].j != cands[b].j {
			return cands[a].j < cands[b].j
		}
		return cands[a].i < cands[b].i
	})
	usedSrc := map[int]bool{}
	usedDst := map[int]bool{}
	var m Mapping
	for _, c := range cands {
		if usedSrc[c.i] || usedDst[c.j] {
			continue
		}
		usedSrc[c.i] = true
		usedDst[c.j] = true
		m.Columns = append(m.Columns, ColumnMap{Src: c.i, Dst: c.j, Score: c.score})
	}
	sort.Slice(m.Columns, func(a, b int) bool { return m.Columns[a].Dst < m.Columns[b].Dst })
	for j := range dst.Headers {
		if !usedDst[j] {
			m.UnmappedTarget = append(m.UnmappedTarget, j)
		}
	}
	for i := range src.Headers {
		if !usedSrc[i] {
			m.DroppedSource = append(m.DroppedSource, i)
		}
	}
	return m
}

// TransformTable converts src into dst's format: columns are aligned, and
// for every aligned column whose values do not already match the target
// column's dominant pattern, a string-level CLX transformation is
// synthesized from the source values toward that pattern. Cell values that
// match no source candidate are copied through; their positions are
// returned as flagged (row, targetColumn) pairs.
func TransformTable(src, dst Table) (Table, Mapping, [][2]int, error) {
	if err := src.Validate(); err != nil {
		return Table{}, Mapping{}, nil, err
	}
	if err := dst.Validate(); err != nil {
		return Table{}, Mapping{}, nil, err
	}
	m := AlignTables(src, dst)
	out := Table{
		Name:    src.Name,
		Headers: append([]string(nil), dst.Headers...),
		Rows:    make([][]string, len(src.Rows)),
	}
	for i := range out.Rows {
		out.Rows[i] = make([]string, len(dst.Headers))
	}
	var flagged [][2]int
	ds := SchemaOf(dst)
	for ci := range m.Columns {
		cm := &m.Columns[ci]
		values := src.Column(cm.Src)
		target := ds.Columns[cm.Dst].Pattern
		transformed := values
		if !target.IsEmpty() && !allMatch(values, target) {
			tr, err := clx.NewSession(values).Label(target)
			if err != nil {
				return Table{}, Mapping{}, nil, err
			}
			cm.Transform = tr
			var flaggedRows []int
			transformed, flaggedRows = tr.Run()
			for _, ri := range flaggedRows {
				flagged = append(flagged, [2]int{ri, cm.Dst})
			}
		}
		for ri := range out.Rows {
			out.Rows[ri][cm.Dst] = transformed[ri]
		}
	}
	if err := out.Validate(); err != nil {
		return Table{}, Mapping{}, nil, fmt.Errorf("tablex: internal shape error: %w", err)
	}
	return out, m, flagged, nil
}

func allMatch(values []string, p interface{ Matches(string) bool }) bool {
	for _, v := range values {
		if v != "" && !p.Matches(v) {
			return false
		}
	}
	return true
}

// Unify converts every table of a group into the target table's format.
// The target itself is returned unchanged in place.
func Unify(tables []Table, targetIdx int) ([]Table, []Mapping, error) {
	if targetIdx < 0 || targetIdx >= len(tables) {
		return nil, nil, fmt.Errorf("tablex: target index %d out of range", targetIdx)
	}
	dst := tables[targetIdx]
	out := make([]Table, len(tables))
	maps := make([]Mapping, len(tables))
	for i, t := range tables {
		if i == targetIdx {
			out[i] = t
			continue
		}
		tt, m, _, err := TransformTable(t, dst)
		if err != nil {
			return nil, nil, err
		}
		out[i], maps[i] = tt, m
	}
	return out, maps, nil
}
