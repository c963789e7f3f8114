// Process-wide compiled-matcher cache.
//
// The same handful of patterns is matched over and over across the system:
// the synthesizer checks the target once per Synthesize call, every
// program compile binds its case sources, pattern.Pattern.Match and
// replace.Op.Apply match one row at a time, and the clxd server repeats all
// of that per request. CompileCached memoizes Compile results under the
// canonical pattern string so one *Compiled — with its pooled backtracking
// state and precomputed quick rejects — is shared across ops, sessions and
// concurrent request handlers.
package rematch

import (
	"math"
	"sync"
	"sync/atomic"

	"clx/internal/obs"
	"clx/internal/token"
)

// cacheLimit bounds the number of cached matchers. Patterns arrive from
// user data, so an unbounded memo would grow with every distinct column a
// long-lived server sees; past the limit the whole cache is dropped and
// rebuilt (correctness is unaffected — the cache is a pure memo). A var so
// tests can exercise eviction without compiling thousands of patterns.
var cacheLimit int64 = 8192

// Cache counters: lookup hits, misses (each miss compiles), and entries
// discarded by generation swaps when the size cap is hit. They are
// process-lifetime monotonic; ResetCache drops entries but leaves the
// counters (a reset is itself an eviction event). A long-lived clxd
// serves them as clx_rematch_cache_* at GET /metrics and under
// matcher_cache in GET /v1/stats.
//
// Conservation invariant: once the cache is quiescent,
// every entry ever inserted is either live in the current generation or
// booked as an eviction — including inserts that land in a generation
// *after* a concurrent overflow retired it, which once vanished unbooked
// and made hits+misses-evictions drift on a busy daemon.
var (
	cacheHits = obs.NewCounter("clx_rematch_cache_hits_total", "matcher_cache.hits",
		"Compiled-matcher cache lookups served from the memo.")
	cacheMisses = obs.NewCounter("clx_rematch_cache_misses_total", "matcher_cache.misses",
		"Compiled-matcher cache lookups that compiled a new matcher.")
	cacheEvictions = obs.NewCounter("clx_rematch_cache_evictions_total", "matcher_cache.evictions",
		"Compiled matchers discarded by generation swaps (size cap or reset).")
)

// cacheMap is one generation of the memo; overflow swaps in a fresh
// generation rather than deleting entries one by one.
//
// n counts inserted entries while the generation is live. Retirement
// claims the count atomically: the swap winner Swap-poisons n to
// retiredGen and books the returned value as evictions. An insert whose
// Add lands after the poison sees a negative result — proof its entry was
// not in the booked count — and books itself as one eviction, so every
// entry is booked exactly once no matter how the race interleaves.
type cacheMap struct {
	m sync.Map // canonical pattern string -> *Compiled
	n atomic.Int64
}

// retiredGen is the poison value marking a retired generation's counter.
// Far enough below zero that any realistic number of late Add(1)s keeps
// the counter negative.
const retiredGen = math.MinInt64 / 2

var cache atomic.Pointer[cacheMap]

func init() { cache.Store(new(cacheMap)) }

// CompileCached returns a shared Compiled for p, memoized process-wide by
// the canonical pattern string (the tokens' String renderings concatenated,
// the same key pattern.Pattern.Key uses, so equal patterns always share a
// matcher).
//
// Unlike Compile — which borrows the caller's slice and forbids later
// mutation — CompileCached copies p before compiling. A cached matcher can
// outlive any session, so it must never alias a token slice the caller (or
// cluster generalization, which rewrites token buffers it owns) might still
// touch.
func CompileCached(p []token.Token) *Compiled {
	k := cacheKey(p)
	cm := cache.Load()
	if c, ok := cm.m.Load(k); ok {
		cacheHits.Inc()
		return c.(*Compiled)
	}
	cacheMisses.Inc()
	own := make([]token.Token, len(p))
	copy(own, p)
	c, loaded := cm.m.LoadOrStore(k, Compile(own))
	if !loaded {
		switch n := cm.n.Add(1); {
		case n < 0:
			// cm was retired (and its count booked) between our Load above
			// and this Add: the entry sits in a dead map, invisible to the
			// retirement booking and to future lookups. Book it here so the
			// eviction counter still conserves inserted entries.
			cacheEvictions.Add(1)
		case n > cacheLimit:
			// Retire this generation; concurrent readers of cm finish
			// harmlessly against the old map. Only the winning swap claims
			// the insert count (Swap poisons it so later inserts book
			// themselves) and books it as evictions.
			if cache.CompareAndSwap(cm, new(cacheMap)) {
				cacheEvictions.Add(cm.n.Swap(retiredGen))
			}
		}
	}
	return c.(*Compiled)
}

// ResetCache drops every memoized matcher, forcing subsequent
// CompileCached calls to recompile. Correctness never depends on cache
// contents; the only callers are benchmarks measuring cold-start cost
// (e.g. the first apply after a daemon restart) against the warm steady
// state.
func ResetCache() {
	cm := cache.Load()
	if cache.CompareAndSwap(cm, new(cacheMap)) {
		cacheEvictions.Add(cm.n.Swap(retiredGen))
	}
}

// cacheKey renders every token into one buffer, which stays on the stack
// for keys up to its size, so a lookup allocates only the key string.
func cacheKey(p []token.Token) string {
	var buf [128]byte
	b := buf[:0]
	for _, t := range p {
		b = t.AppendString(b)
	}
	return string(b)
}
