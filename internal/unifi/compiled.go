// Compiled programs: a UniFi Switch prepared for applying to many rows.
// Each case's source pattern is compiled once (quick rejects + pooled
// matcher state) and plans are evaluated directly over the match spans.
// A plain Program is compiled through its Lift.
package unifi

import (
	"fmt"
	"strings"
	"sync"

	"clx/internal/pattern"
	"clx/internal/rematch"
)

// spanBufs pools per-call span buffers for the guarded-dispatch hot
// paths: one buffer serves every candidate case of a row, replacing the
// per-case span allocation inside Compiled.Match.
var spanBufs = sync.Pool{New: func() any { return new([]rematch.Span) }}

// CompiledGuardedProgram is a GuardedProgram prepared for repeated
// application — the serving-time hot path. GuardedProgram.Apply resolves
// each case's matcher through the compile cache on every call, which
// rebuilds the canonical pattern key per row per case; here the matchers
// are bound once, so per-row dispatch is just quick-reject and match work.
// It is safe for concurrent use.
type CompiledGuardedProgram struct {
	cases []compiledGuardedCase
}

type compiledGuardedCase struct {
	matcher *rematch.Compiled
	source  pattern.Pattern
	guard   Guard
	plan    Plan
	// fits reports that the plan evaluates over this case's matches (see
	// Plan.fits); a case that matches but does not fit fails Apply.
	fits bool
}

// spanGuard is implemented by guards that can be evaluated against the
// dispatch match's spans, sparing a second match of the row.
type spanGuard interface {
	holdsSpans(s string, spans []rematch.Span) bool
}

func (g TokenIs) holdsSpans(s string, spans []rematch.Span) bool {
	if g.I < 1 || g.I > len(spans) {
		return false
	}
	return s[spans[g.I-1].Start:spans[g.I-1].End] == g.Value
}

// Compile binds every case to its process-wide cached matcher.
func (gp GuardedProgram) Compile() *CompiledGuardedProgram {
	cp := &CompiledGuardedProgram{cases: make([]compiledGuardedCase, len(gp.Cases))}
	for i, c := range gp.Cases {
		cp.cases[i] = compiledGuardedCase{
			matcher: rematch.CompileCached(c.Source.Tokens()),
			source:  c.Source,
			guard:   c.Guard,
			plan:    c.Plan,
			fits:    c.Plan.fits(c.Source.Len()),
		}
	}
	return cp
}

// Apply transforms s with the first applicable case, exactly as
// GuardedProgram.Apply does.
func (cp *CompiledGuardedProgram) Apply(s string) (string, error) {
	bp := spanBufs.Get().(*[]rematch.Span)
	defer spanBufs.Put(bp)
	c, spans := cp.pick(s, bp)
	if c == nil {
		return "", ErrNoMatch
	}
	return c.plan.applySpans(s, spans)
}

// AppendApply transforms s exactly as Apply does but appends the result to
// dst instead of allocating a string — the bulk-apply hot path, where the
// caller owns a reusable per-chunk buffer. On any error dst is returned
// grown only by whatever the failing plan wrote; callers that need
// all-or-nothing truncate back to their own mark.
func (cp *CompiledGuardedProgram) AppendApply(dst []byte, s string) ([]byte, error) {
	bp := spanBufs.Get().(*[]rematch.Span)
	defer spanBufs.Put(bp)
	c, spans := cp.pick(s, bp)
	if c == nil {
		return dst, ErrNoMatch
	}
	return c.plan.AppendSpans(dst, s, spans)
}

// Covers reports whether Apply(s) succeeds, without rendering the
// output: some case matches, its guard holds, and its plan fits the
// match. Rows it rejects are exactly the rows Apply flags.
func (cp *CompiledGuardedProgram) Covers(s string) bool {
	bp := spanBufs.Get().(*[]rematch.Span)
	defer spanBufs.Put(bp)
	c, _ := cp.pick(s, bp)
	return c != nil && c.fits
}

// pick returns the first case whose pattern matches s and whose guard
// holds, with the match spans (in *bp's storage), or nil when none does.
func (cp *CompiledGuardedProgram) pick(s string, bp *[]rematch.Span) (*compiledGuardedCase, []rematch.Span) {
	for i := range cp.cases {
		c := &cp.cases[i]
		spans, ok := c.matcher.MatchInto(s, *bp)
		if cap(spans) > cap(*bp) {
			*bp = spans
		}
		if !ok {
			continue
		}
		if c.guard != nil {
			if sg, ok := c.guard.(spanGuard); ok {
				if !sg.holdsSpans(s, spans) {
					continue
				}
			} else if !c.guard.Holds(c.source, s) {
				continue
			}
		}
		return c, spans
	}
	return nil, nil
}

// applySpans evaluates the plan over precomputed match spans. A sizing
// pass validates every operator and totals the exact output length first,
// so the builder grows once instead of doubling through appends — and
// since the old code discarded partial output on error anyway, erroring
// before any write is observably identical.
func (p Plan) applySpans(s string, spans []rematch.Span) (string, error) {
	size := 0
	for _, op := range p.Ops {
		switch op := op.(type) {
		case ConstStr:
			size += len(op.S)
		case Extract:
			if op.I < 1 || op.J > len(spans) || op.I > op.J {
				return "", fmt.Errorf("unifi: Extract(%d,%d) out of range for source of %d tokens",
					op.I, op.J, len(spans))
			}
			size += spans[op.J-1].End - spans[op.I-1].Start
		default:
			return "", fmt.Errorf("unifi: unknown operator %T", op)
		}
	}
	var b strings.Builder
	b.Grow(size)
	for _, op := range p.Ops {
		switch op := op.(type) {
		case ConstStr:
			b.WriteString(op.S)
		case Extract:
			b.WriteString(s[spans[op.I-1].Start:spans[op.J-1].End])
		}
	}
	return b.String(), nil
}

// AppendSpans is the plan evaluated over precomputed match spans of s,
// appended to a caller-owned buffer: the same output and errors as Apply
// when spans come from matching s against the plan's source pattern.
// Callers scoring many plans over one match reuse both the spans and the
// buffer.
func (p Plan) AppendSpans(dst []byte, s string, spans []rematch.Span) ([]byte, error) {
	for _, op := range p.Ops {
		switch op := op.(type) {
		case ConstStr:
			dst = append(dst, op.S...)
		case Extract:
			if op.I < 1 || op.J > len(spans) || op.I > op.J {
				return dst, fmt.Errorf("unifi: Extract(%d,%d) out of range for source of %d tokens",
					op.I, op.J, len(spans))
			}
			dst = append(dst, s[spans[op.I-1].Start:spans[op.J-1].End]...)
		default:
			return dst, fmt.Errorf("unifi: unknown operator %T", op)
		}
	}
	return dst, nil
}

// fits reports whether the plan evaluates over a match of an n-token
// source pattern — exactly when applySpans and AppendSpans succeed on
// such a match, whose span count is always n.
func (p Plan) fits(n int) bool {
	for _, op := range p.Ops {
		switch op := op.(type) {
		case ConstStr:
		case Extract:
			if op.I < 1 || op.J > n || op.I > op.J {
				return false
			}
		default:
			return false
		}
	}
	return true
}
