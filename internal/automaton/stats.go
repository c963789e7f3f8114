// Process-wide automaton-compilation counters, in the obs default
// registry: clxd serves them as clx_automaton_* at GET /metrics and under
// automaton in GET /v1/stats. A deployment watches the fallback counter:
// a nonzero rate means some registered programs still apply through the
// backtracking reference engine instead of the fused automaton.
package automaton

import "clx/internal/obs"

var (
	// mCompiled counts programs lowered to automata; mFallback counts
	// programs that stayed on the backtracking reference engine.
	mCompiled = obs.NewCounter("clx_automaton_compiled_total", "automaton.compiled",
		"Guarded programs successfully compiled to fused byte automata.")
	mFallback = obs.NewCounter("clx_automaton_fallback_total", "automaton.fallback",
		"Guarded programs the automaton compiler could not lower (served by the backtracking engine).")
)
