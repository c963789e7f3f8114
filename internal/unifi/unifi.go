// Package unifi defines the UniFi domain-specific language of paper §5
// (Figure 7) and its evaluator. A UniFi program is a Switch of
// (Match(pattern), expression) cases; an expression is a Concat of ConstStr
// and Extract string operators — an "atomic transformation plan"
// (Definition 5.1).
package unifi

import (
	"fmt"
	"strings"

	"clx/internal/pattern"
)

// Op is one string operator of an atomic transformation plan: ConstStr or
// Extract.
type Op interface {
	fmt.Stringer
	isOp()
}

// ConstStr denotes a constant string s̃.
type ConstStr struct {
	S string
}

func (ConstStr) isOp() {}

// String renders the operator as in the paper, e.g. ConstStr('[').
func (c ConstStr) String() string { return fmt.Sprintf("ConstStr(%q)", c.S) }

// Extract extracts from the I-th to the J-th token (1-based, inclusive) of
// the source pattern. Extract{i, i} is written Extract(i) in the paper.
type Extract struct {
	I, J int
}

func (Extract) isOp() {}

// String renders the operator as in the paper: Extract(1,4) or Extract(2).
func (e Extract) String() string {
	if e.I == e.J {
		return fmt.Sprintf("Extract(%d)", e.I)
	}
	return fmt.Sprintf("Extract(%d,%d)", e.I, e.J)
}

// Plan is an atomic transformation plan: a Concat of operators converting a
// given source pattern into the target pattern (Definition 5.1).
type Plan struct {
	Ops []Op
}

// String renders the plan as in the paper, e.g.
// Concat(Extract(1,4),ConstStr("]")).
func (p Plan) String() string {
	parts := make([]string, len(p.Ops))
	for i, op := range p.Ops {
		parts[i] = op.String()
	}
	return "Concat(" + strings.Join(parts, ",") + ")"
}

// Len returns |E|, the number of operators in the plan.
func (p Plan) Len() int { return len(p.Ops) }

// Case is one (b, E) pair of a Switch: strings matching Source are
// transformed by Plan.
type Case struct {
	Source pattern.Pattern
	Plan   Plan
}

// Program is a UniFi program: Switch((b1,E1),...,(bn,En)). Cases are tried
// in order; the first whose source pattern matches wins.
type Program struct {
	Cases []Case
}

// String renders the program in the paper's surface syntax.
func (pr Program) String() string {
	var b strings.Builder
	b.WriteString("Switch(")
	for i, c := range pr.Cases {
		if i > 0 {
			b.WriteString(",\n       ")
		}
		fmt.Fprintf(&b, "(Match(%q), %s)", c.Source.String(), c.Plan.String())
	}
	b.WriteString(")")
	return b.String()
}

// ErrNoMatch is returned by Apply when no case's pattern matches the input.
var ErrNoMatch = fmt.Errorf("unifi: no case matches input")

// Apply evaluates the plan against s, which must match source exactly. The
// spans of the match bind Extract operators to substrings of s.
func (p Plan) Apply(source pattern.Pattern, s string) (string, error) {
	spans, ok := source.Match(s)
	if !ok {
		return "", fmt.Errorf("unifi: %q does not match source pattern %s", s, source)
	}
	return p.applySpans(s, spans)
}

// Apply transforms s with the first matching case. It returns ErrNoMatch
// when no case applies — such records are left unchanged and flagged for
// review by callers (paper §6.1).
func (pr Program) Apply(s string) (string, error) { return pr.Lift().Apply(s) }

// Equal reports structural equality of two plans.
func (p Plan) Equal(q Plan) bool {
	if len(p.Ops) != len(q.Ops) {
		return false
	}
	for i, op := range p.Ops {
		if op != q.Ops[i] {
			return false
		}
	}
	return true
}
