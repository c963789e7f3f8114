// The Preview Table of paper Figure 8: a before/after sample visualizing a
// Replace operation's effect, shown next to each suggested operation so the
// user can verify it at a glance.
package replace

import (
	"fmt"
	"strings"

	"clx/internal/rematch"
)

// PreviewRow is one before/after pair of a preview table.
type PreviewRow struct {
	Input, Output string
}

// Preview samples up to max rows of data that the operation matches and
// returns their transformations (paper Fig. 8). The operation's matcher is
// resolved once and its spans reused across the scanned rows.
func (op Op) Preview(data []string, max int) []PreviewRow {
	if max <= 0 {
		max = 3
	}
	m := rematch.CompileCached(op.Source.Tokens())
	var (
		rows  []PreviewRow
		spans []rematch.Span
		ok    bool
	)
	for _, s := range data {
		if spans, ok = m.MatchInto(s, spans); !ok {
			continue
		}
		rows = append(rows, PreviewRow{Input: s, Output: op.render(s, spans)})
		if len(rows) == max {
			break
		}
	}
	return rows
}

// PreviewTable renders the program with a preview table per operation:
//
//	1 Replace /^.../ in column with '...'
//	     734-422-8073   ->  (734) 422-8073
//	     313-263-1192   ->  (313) 263-1192
func (p Program) PreviewTable(data []string, perOp int) string {
	var b strings.Builder
	width := 0
	for _, s := range data {
		if len(s) > width {
			width = len(s)
		}
	}
	for i, op := range p {
		fmt.Fprintf(&b, "%d %s\n", i+1, op.String())
		for _, row := range op.Preview(data, perOp) {
			fmt.Fprintf(&b, "     %-*s  ->  %s\n", width, row.Input, row.Output)
		}
	}
	return b.String()
}
