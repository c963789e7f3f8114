package clx

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"clx/internal/automaton"
	"clx/internal/parallel"
	"clx/internal/pattern"
	"clx/internal/rematch"
	"clx/internal/unifi"
)

// SavedProgram is a verified transformation serialized for later use:
// synthesize and verify once during wrangling, then ship the program to a
// pipeline and apply it without re-synthesis. The JSON form is
// human-auditable — it is the same Replace-operation content the user
// verified.
type SavedProgram struct {
	target pattern.Pattern
	prog   unifi.GuardedProgram
	// compiled and targetM bind the program's matchers once, when the
	// engine is built, so the per-row hot path never rebuilds cache keys.
	compiled *unifi.CompiledGuardedProgram
	targetM  *rematch.Compiled
	// auto is the program fused into a single byte automaton (target
	// identity case + every guarded case, one scan per row), built once
	// with the engine. nil when the compiler can't lower the program; the
	// backtracking engine above then serves it — counted in
	// automaton.GlobalStats.
	auto *automaton.Machine
	// Workers bounds the goroutine fan-out of Transform: 0 uses one worker
	// per CPU, 1 runs serially. Output is identical for every setting.
	Workers int
}

type savedJSON struct {
	Target string          `json:"target"`
	Cases  json.RawMessage `json:"cases"`
}

// Export serializes the transformation (with any repairs and guarded cases
// applied) for LoadProgram.
func (t *Transformation) Export() ([]byte, error) {
	var progBuf bytes.Buffer
	progEnc := json.NewEncoder(&progBuf)
	progEnc.SetEscapeHTML(false)
	gp, _ := t.guardedProgram()
	if err := progEnc.Encode(gp); err != nil {
		return nil, err
	}
	progRaw := progBuf.Bytes()
	var pj struct {
		Cases json.RawMessage `json:"cases"`
	}
	if err := json.Unmarshal(progRaw, &pj); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep "<D>3" readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(savedJSON{
		Target: t.res.Target.String(),
		Cases:  pj.Cases,
	}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// LoadProgram deserializes a program produced by Export.
func LoadProgram(data []byte) (*SavedProgram, error) {
	var sj savedJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return nil, err
	}
	target, err := pattern.Parse(sj.Target)
	if err != nil {
		return nil, fmt.Errorf("clx: bad target in saved program: %w", err)
	}
	var prog unifi.GuardedProgram
	if err := json.Unmarshal([]byte(fmt.Sprintf(`{"cases":%s}`, sj.Cases)), &prog); err != nil {
		return nil, err
	}
	return newSavedProgram(target, prog), nil
}

// newSavedProgram binds a program to the serving engine: the target
// identity check, the fused byte automaton when the program lowers to
// one, and the compiled backtracking program behind it. LoadProgram and
// a live Transformation build the same engine, so the rows a user checks
// are produced by the code that later serves the program.
func newSavedProgram(target pattern.Pattern, prog unifi.GuardedProgram) *SavedProgram {
	sp := &SavedProgram{
		target:   target,
		prog:     prog,
		compiled: prog.Compile(),
		targetM:  rematch.CompileCached(target.Tokens()),
	}
	// Best effort: a program the automaton compiler can't lower (counted
	// in the fallback metric) is served by the backtracking engine with
	// identical results.
	if m, err := automaton.CompileSaved(target, prog); err == nil {
		sp.auto = m
	}
	return sp
}

// HasAutomaton reports whether the program compiled to the fused byte
// automaton; false means the backtracking reference engine serves it (the
// clx_automaton_fallback_total counter records why loads got here).
func (sp *SavedProgram) HasAutomaton() bool { return sp.auto != nil }

// DisableAutomaton forces every apply path onto the backtracking
// reference engine — the differential layer's handle for comparing the
// two engines on the same loaded program.
func (sp *SavedProgram) DisableAutomaton() { sp.auto = nil }

// autoArenas pools automaton scratch across rows, chunks, and programs;
// Machine scratch is program-independent, so one pool serves all.
var autoArenas = sync.Pool{New: func() any { return new(automaton.Arena) }}

// Target returns the program's target pattern.
func (sp *SavedProgram) Target() Pattern { return sp.target }

// Sources returns the source patterns the program's cases cover, in case
// order with duplicates removed (guarded cases share a source). Together
// with Target they are the program's recorded format profile: a row
// matching none of them is invisible to the program — the drift signal a
// registry reports at serving time.
func (sp *SavedProgram) Sources() []Pattern {
	seen := make(map[string]bool, len(sp.prog.Cases))
	out := make([]Pattern, 0, len(sp.prog.Cases))
	for _, c := range sp.prog.Cases {
		k := c.Source.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, c.Source)
	}
	return out
}

// Guarded reports whether some case carries a content guard. Only then can
// a row match a recorded source pattern and still be left unchanged: its
// keyword is in none of the guarded groups. Unguarded programs flag exactly
// the rows that match no recorded pattern.
func (sp *SavedProgram) Guarded() bool {
	for _, c := range sp.prog.Cases {
		if c.Guard != nil {
			return true
		}
	}
	return false
}

// Apply transforms one value: already-clean values pass through, values of
// a known format are transformed, anything else is returned unchanged with
// ok=false.
func (sp *SavedProgram) Apply(s string) (string, bool) {
	if sp.auto != nil {
		// One fused scan: the identity (target) case and every guarded
		// case dispatch together, so a clean row costs the same single
		// pass as a transformed one.
		out, err := sp.auto.Apply(s)
		if err != nil {
			return s, false
		}
		return out, true
	}
	if sp.targetM.Matches(s) {
		return s, true
	}
	out, err := sp.compiled.Apply(s)
	if err != nil {
		return s, false
	}
	return out, true
}

// AppendApply is Apply into a caller-owned buffer: the transformed value
// (or, for uncovered rows, the input itself) is appended to dst with no
// per-row string allocation. The appended bytes and the ok flag are
// byte-for-byte the Apply result — the invariant the streaming bulk-apply
// engine's differential suite pins against Transform.
func (sp *SavedProgram) AppendApply(dst []byte, s string) ([]byte, bool) {
	apply, release := sp.ChunkApplier()
	defer release()
	return apply(dst, s)
}

// ChunkApplier implements stream.ChunkApplier, the streaming engine's one
// program interface: the returned apply is AppendApply bound to
// chunk-scoped automaton scratch, acquired once here instead of once per
// row, which is what makes the steady-state streaming path allocation
// free.
func (sp *SavedProgram) ChunkApplier() (apply func(dst []byte, s string) ([]byte, bool), release func()) {
	if sp.auto == nil {
		return func(dst []byte, s string) ([]byte, bool) {
			if sp.targetM.Matches(s) {
				return append(dst, s...), true
			}
			out, err := sp.compiled.AppendApply(dst, s)
			return settle(out, len(dst), s, err)
		}, func() {}
	}
	a := autoArenas.Get().(*automaton.Arena)
	return func(dst []byte, s string) ([]byte, bool) {
		out, err := sp.auto.AppendApply(dst, s, a)
		return settle(out, len(dst), s, err)
	}, func() { autoArenas.Put(a) }
}

// settle finishes one appended row: an uncovered row or a plan error
// truncates out back to mark and passes the input s through, ok=false.
func settle(out []byte, mark int, s string, err error) ([]byte, bool) {
	if err != nil {
		return append(out[:mark], s...), false
	}
	return out, true
}

// Transform applies the program to a column, returning the output and the
// indices of rows left unchanged for review. Rows are applied across
// sp.Workers goroutines; output order and flagged order are identical to a
// serial scan for every worker count.
func (sp *SavedProgram) Transform(rows []string) (out []string, flagged []int) {
	defer func(t0 time.Time) { obsApplyDur.Observe(time.Since(t0)) }(time.Now())
	return sp.transform(rows)
}

// transform is Transform without the stage timing, so Transformation.Run
// records its own stage and no histogram counts a row twice.
func (sp *SavedProgram) transform(rows []string) (out []string, flagged []int) {
	out = make([]string, len(rows))
	flagged = parallel.Gather(sp.Workers, len(rows), func(lo, hi int, emit func(int)) {
		for i := lo; i < hi; i++ {
			v, ok := sp.Apply(rows[i])
			out[i] = v
			if !ok {
				emit(i)
			}
		}
	})
	return out, flagged
}
