package rematch

import (
	"fmt"
	"sync"
	"testing"

	"clx/internal/obs"
	"clx/internal/token"
)

func phonePattern() []token.Token {
	return []token.Token{
		token.Base(token.Digit, 3), token.Lit("-"),
		token.Base(token.Digit, 3), token.Lit("-"),
		token.Base(token.Digit, 4),
	}
}

func TestCompileCachedShares(t *testing.T) {
	a := CompileCached(phonePattern())
	b := CompileCached(phonePattern())
	if a != b {
		t.Error("equal patterns should share one cached matcher")
	}
	if !a.Matches("734-645-8397") || a.Matches("7346458397") {
		t.Error("cached matcher has wrong semantics")
	}
}

// TestCompileCachedDefensiveCopy is the aliasing regression test: mutating
// the caller's token slice after CompileCached must not corrupt the cached
// matcher (Compile documents "the slice is not copied"; the cache must).
func TestCompileCachedDefensiveCopy(t *testing.T) {
	toks := phonePattern()
	c := CompileCached(toks)
	if !c.Matches("734-645-8397") {
		t.Fatal("matcher rejects a valid phone")
	}
	// Clobber the live slice the way a buggy caller could.
	for i := range toks {
		toks[i] = token.Lit("X")
	}
	if !c.Matches("734-645-8397") {
		t.Error("cached matcher aliased the caller's mutated slice")
	}
	// A fresh lookup of the original pattern still matches too.
	if !CompileCached(phonePattern()).Matches("734-645-8397") {
		t.Error("cache entry corrupted by caller mutation")
	}
}

func TestCompileCachedConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := CompileCached(phonePattern())
				if !c.Matches("734-645-8397") {
					t.Error("concurrent cached match failed")
					return
				}
				// Distinct per-goroutine patterns churn the cache at the
				// same time.
				p := []token.Token{token.Lit(fmt.Sprintf("g%d-%d", g, i))}
				if !CompileCached(p).Matches(fmt.Sprintf("g%d-%d", g, i)) {
					t.Error("per-goroutine cached match failed")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCompileCachedLimitReset(t *testing.T) {
	// Overflow the cache with distinct patterns; matching must keep working
	// through the reset and the shared entry must be recoverable after.
	for i := 0; i < int(cacheLimit)+64; i++ {
		p := []token.Token{token.Lit(fmt.Sprintf("k%d", i))}
		if !CompileCached(p).Matches(fmt.Sprintf("k%d", i)) {
			t.Fatalf("entry %d mismatched", i)
		}
	}
	if !CompileCached(phonePattern()).Matches("734-645-8397") {
		t.Error("cache unusable after limit reset")
	}
}

// cacheCounters is the matcher_cache section of /v1/stats.
type cacheCounters struct{ Hits, Misses, Evictions int64 }

// readCacheCounters reads the cache counters through the registry that
// serves /v1/stats and /metrics.
func readCacheCounters() cacheCounters {
	st := obs.Default.Stats()
	return cacheCounters{st["matcher_cache.hits"], st["matcher_cache.misses"], st["matcher_cache.evictions"]}
}

// TestCacheStatsCounters pins the observable cache accounting: a first
// compile is a miss, a repeat is a hit, and overflowing the (lowered) size
// cap books the retired generation's entries as evictions.
func TestCacheStatsCounters(t *testing.T) {
	old := cacheLimit
	cacheLimit = 8
	defer func() { cacheLimit = old; ResetCache() }()
	ResetCache()

	s0 := readCacheCounters()
	p := phonePattern()
	CompileCached(p)
	CompileCached(p)
	s1 := readCacheCounters()
	if got := s1.Misses - s0.Misses; got < 1 {
		t.Errorf("misses grew by %d, want >= 1", got)
	}
	if got := s1.Hits - s0.Hits; got < 1 {
		t.Errorf("hits grew by %d, want >= 1", got)
	}

	for i := 0; i < 4*int(cacheLimit); i++ {
		v := fmt.Sprintf("e%d", i)
		if !CompileCached([]token.Token{token.Lit(v)}).Matches(v) {
			t.Fatalf("entry %d mismatched", i)
		}
	}
	s2 := readCacheCounters()
	if s2.Evictions <= s1.Evictions {
		t.Errorf("evictions did not grow past the size cap: %d -> %d",
			s1.Evictions, s2.Evictions)
	}
	if got := s2.Misses - s1.Misses; got < 4*cacheLimit {
		t.Errorf("distinct patterns produced %d misses, want >= %d", got, 4*cacheLimit)
	}
}

// TestCacheEvictionConservation is the eviction-drift regression: hammer
// CompileCached with unique patterns across many forced generation swaps
// and assert the counters conserve entries exactly. Every unique pattern
// is inserted once (misses == inserts); after the final reset retires the
// last generation, every insert must be booked as an eviction — including
// inserts that landed in a generation after a concurrent swap retired it,
// which the old accounting (Load instead of Swap at retirement, no
// late-insert booking) silently dropped. Run under -race this also pins
// the retirement protocol itself.
func TestCacheEvictionConservation(t *testing.T) {
	old := cacheLimit
	cacheLimit = 32 // force frequent generation swaps
	defer func() { cacheLimit = old; ResetCache() }()
	ResetCache()

	s0 := readCacheCounters()
	const goroutines, perG = 8, 800
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := fmt.Sprintf("c%d-%d", g, i)
				if !CompileCached([]token.Token{token.Lit(v)}).Matches(v) {
					t.Error("cached match failed during swap churn")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Retire the final generation so nothing is left live; conservation is
	// then exact: evictions must equal inserts.
	ResetCache()

	s1 := readCacheCounters()
	if got := s1.Hits - s0.Hits; got != 0 {
		t.Errorf("unique patterns produced %d hits, want 0", got)
	}
	inserts := s1.Misses - s0.Misses
	if inserts != goroutines*perG {
		t.Fatalf("misses = %d, want %d (unique patterns miss exactly once)", inserts, goroutines*perG)
	}
	if evicted := s1.Evictions - s0.Evictions; evicted != inserts {
		t.Errorf("eviction drift: %d inserts but %d evictions booked", inserts, evicted)
	}
}

func TestCompileCachedEmptyPattern(t *testing.T) {
	c := CompileCached(nil)
	if !c.Matches("") || c.Matches("x") {
		t.Error("empty pattern must match exactly the empty string")
	}
}
