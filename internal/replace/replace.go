// Package replace implements the program explanation of paper §5: a
// synthesized UniFi program is presented to the user as a set of regexp
// Replace operations parameterized by Wrangler-style natural-language
// regexps (Figure 4). Consecutive extracted tokens are merged into a single
// capture group, ConstStr text appears verbatim in the replacement, and
// Extract operations become $k group references.
//
// The rendered regexp strings are for the user; execution goes through the
// span-based matcher (internal/rematch via pattern.Match), which has
// identical semantics for these anchored patterns.
package replace

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"clx/internal/pattern"
	"clx/internal/rematch"
	"clx/internal/unifi"
)

// Op is one Replace operation: "Replace 'Regex' in column with
// 'Replacement'".
type Op struct {
	// Source is the matched pattern.
	Source pattern.Pattern
	// Groups are the token ranges of Source captured as $1..$n, half-open
	// zero-based [start, end) ranges in ascending order.
	Groups [][2]int
	// Replacement is the replacement template with $k references.
	Replacement string
	// Where is an optional content-condition description appended to the
	// rendering ("token 1 is \"picture\"") — the §7.4 guard extension.
	Where string
	// Plan is the underlying atomic transformation plan.
	Plan unifi.Plan
	// SourceIndex is, for an op of a synthesized transformation, the index
	// of the source pattern it serves (the source whose ranked plans are
	// its alternatives); -1 when it serves none or stands alone.
	SourceIndex int
}

// Program is an ordered set of Replace operations; the first operation whose
// pattern matches a string is applied.
type Program []Op

// Explain converts a UniFi program into its Replace-operation presentation.
func Explain(prog unifi.Program) Program {
	out := make(Program, 0, len(prog.Cases))
	for _, c := range prog.Cases {
		out = append(out, ExplainCase(c))
	}
	return out
}

// ExplainCase converts one (Match, Plan) case into a Replace operation,
// merging consecutive extracted tokens into a single group ("if multiple
// consecutive tokens are extracted in p, we merge them as one component",
// §5).
func ExplainCase(c unifi.Case) Op {
	// Collect extract ranges in plan order, merging adjacent plan ops that
	// extract contiguous source tokens.
	type piece struct {
		isConst bool
		text    string // const text
		rng     [2]int // 1-based inclusive token range for extracts
	}
	var pieceBuf [16]piece
	pieces := pieceBuf[:0]
	for _, op := range c.Plan.Ops {
		switch op := op.(type) {
		case unifi.ConstStr:
			pieces = append(pieces, piece{isConst: true, text: op.S})
		case unifi.Extract:
			if n := len(pieces); n > 0 && !pieces[n-1].isConst && pieces[n-1].rng[1]+1 == op.I {
				pieces[n-1].rng[1] = op.J
				continue
			}
			pieces = append(pieces, piece{rng: [2]int{op.I, op.J}})
		}
	}
	// Assign group numbers to distinct extract ranges in source order, so
	// the groups read left to right in the regexp. Overlapping ranges are
	// kept as separate groups only if identical; distinct overlapping
	// ranges fall back to per-piece groups in plan order.
	var distinctBuf, orderedBuf [16][2]int
	distinct := distinctBuf[:0]
	for _, pc := range pieces {
		if !pc.isConst && !slices.Contains(distinct, pc.rng) {
			distinct = append(distinct, pc.rng)
		}
	}
	ordered := append(orderedBuf[:0], distinct...)
	sortRanges(ordered)
	if !nonOverlapping(ordered) {
		// Rare: overlapping distinct ranges; number groups in plan order.
		ordered = distinct
	}
	groups := make([][2]int, len(ordered))
	for i, r := range ordered {
		groups[i] = [2]int{r[0] - 1, r[1]} // to 0-based half-open
	}
	var replBuf [64]byte
	repl := replBuf[:0]
	for _, pc := range pieces {
		if !pc.isConst {
			repl = append(repl, '$')
			repl = strconv.AppendInt(repl, int64(slices.Index(ordered, pc.rng)+1), 10)
			continue
		}
		repl = append(repl, strings.ReplaceAll(pc.text, "$", "$$")...)
	}
	return Op{
		Source:      c.Source,
		Groups:      groups,
		Replacement: string(repl),
		Plan:        c.Plan,
		SourceIndex: -1,
	}
}

func sortRanges(rs [][2]int) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j][0] < rs[j-1][0]; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func nonOverlapping(rs [][2]int) bool {
	for i := 1; i < len(rs); i++ {
		if rs[i][0] <= rs[i-1][1] {
			return false
		}
	}
	return true
}

// NLRegex renders the operation's match pattern as a Wrangler-style regexp
// with capture groups, e.g. "/^\(({digit}{3})\)({digit}{3})\-({digit}{4})$/".
func (op Op) NLRegex() string { return op.Source.GroupedNLRegex(op.Groups) }

// Regex renders the operation's match pattern as a POSIX-style regexp with
// capture groups.
func (op Op) Regex() string { return op.Source.GroupedRegex(op.Groups) }

// String renders the full operation as presented in Figure 4.
func (op Op) String() string {
	s := fmt.Sprintf("Replace %s in column with '%s'", op.NLRegex(), op.Replacement)
	if op.Where != "" {
		s += " where " + op.Where
	}
	return s
}

// Apply applies the replace operation to s. ok is false when s does not
// match the operation's pattern. Matching goes through the process-wide
// compile cache: applying one operation row by row — the saved-program
// path, the CLI — reuses a single prepared matcher instead of rebuilding
// backtracking state per row.
func (op Op) Apply(s string) (string, bool) {
	spans, match := rematch.CompileCached(op.Source.Tokens()).Match(s)
	if !match {
		return "", false
	}
	return op.render(s, spans), true
}

// render evaluates the replacement template over s's per-token spans.
func (op Op) render(s string, spans []rematch.Span) string {
	var b strings.Builder
	repl := op.Replacement
	for i := 0; i < len(repl); {
		if repl[i] != '$' || i+1 >= len(repl) {
			b.WriteByte(repl[i])
			i++
			continue
		}
		if repl[i+1] == '$' {
			b.WriteByte('$')
			i += 2
			continue
		}
		j := i + 1
		n := 0
		for j < len(repl) && repl[j] >= '0' && repl[j] <= '9' {
			n = n*10 + int(repl[j]-'0')
			j++
		}
		if j == i+1 || n < 1 || n > len(op.Groups) {
			b.WriteByte(repl[i])
			i++
			continue
		}
		g := op.Groups[n-1]
		b.WriteString(s[spans[g[0]].Start:spans[g[1]-1].End])
		i = j
	}
	return b.String()
}

// Apply applies the first matching operation, returning ok=false when none
// matches.
func (p Program) Apply(s string) (string, bool) {
	for _, op := range p {
		if out, ok := op.Apply(s); ok {
			return out, true
		}
	}
	return "", false
}

// String renders the program as the numbered operation list of Figure 4.
func (p Program) String() string {
	var b strings.Builder
	for i, op := range p {
		fmt.Fprintf(&b, "%d %s\n", i+1, op.String())
	}
	return b.String()
}
