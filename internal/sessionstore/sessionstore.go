// Package sessionstore is the concurrency-safe registry behind clxd's
// /v1/sessions endpoints (ROADMAP item 3): it owns the stateful
// cluster → label → transform → verify → repair loops that outlive a
// single request.
//
// Locking model (DESIGN.md §16). A clx.Session is not goroutine-safe, so
// every session lives inside a Handle with its own sync.Mutex; all use of
// the session — including the synthesis a handler runs between Acquire
// and the release func — happens under that lock. The store itself holds
// only the id → handle map under a sync.RWMutex, and never holds it while
// touching a session, so one slow synthesis cannot stall unrelated
// sessions. Create registers the handle (locked) before running the
// expensive initial profile, holding the store lock only for the map
// insert.
//
// Eviction. Sessions idle for longer than the TTL are evicted by a lazy
// sweep: no background goroutine, the scan piggybacks on Create and
// Acquire at most once per TTL/4 (Sweep may also be called directly).
// The sweep uses TryLock — a session mid-request is by definition not
// idle and is skipped, never blocked on. Deleting and evicting both
// remove the handle from the map first and then mark it evicted under
// its own lock, so an in-flight Acquire that already fetched the handle
// observes the tombstone and reports the session gone. Whoever removes
// the handle from the map counts it, exactly once. The clock is
// injectable (Config.Now) so eviction is deterministic under test.
//
// Capacity. MaxSessions bounds the live set; Create past the bound
// returns ErrFull and RetryAfter estimates when the next TTL expiry will
// free a slot, which the daemon surfaces as 429 + Retry-After — the same
// admission envelope as stream admission.
package sessionstore

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clx"
	"clx/internal/obs"
)

var (
	// ErrFull reports that the store is at MaxSessions capacity.
	ErrFull = errors.New("sessionstore: session limit reached")
	// ErrNotFound reports that no live session has the requested id.
	ErrNotFound = errors.New("sessionstore: no such session")
)

// Process-wide session metrics, exported on /metrics next to the daemon's
// other clx_* families. Per-store numbers live in Store.Stats; these
// aggregate across stores (one per daemon in production, several in
// tests).
var (
	obsActive = obs.NewGauge("clx_sessions_active",
		"Live interactive sessions.")
	obsCreated = obs.NewCounter("clx_sessions_created_total",
		"Sessions created.")
	obsEvicted = obs.NewCounter("clx_sessions_evicted_total",
		"Sessions evicted by the TTL sweep.")
	obsDeleted = obs.NewCounter("clx_sessions_deleted_total",
		"Sessions deleted explicitly.")
	obsRejected = obs.NewCounter("clx_sessions_rejected_total",
		"Session creations rejected at MaxSessions capacity.")
)

// Config parameterizes a Store.
type Config struct {
	// TTL is the idle lifetime: a session untouched for longer is
	// eligible for eviction. Zero or negative disables eviction.
	TTL time.Duration
	// MaxSessions bounds the live session count; zero or negative means
	// unbounded.
	MaxSessions int
	// Now is the clock, for deterministic eviction under test. Nil means
	// time.Now.
	Now func() time.Time
}

// Counters is a point-in-time snapshot of one store's lifecycle
// counters. Active = Created - Evicted - Deleted always holds (the
// conservation the race test pins).
type Counters struct {
	Active   int64 `json:"active"`
	Created  int64 `json:"created"`
	Evicted  int64 `json:"evicted"`
	Deleted  int64 `json:"deleted"`
	Rejected int64 `json:"rejected"`
}

// Store is a concurrency-safe registry of live sessions.
type Store struct {
	cfg Config

	mu sync.RWMutex
	m  map[string]*Handle

	lastSweep atomic.Int64 // unixnano of the last piggybacked sweep

	created  atomic.Int64
	evicted  atomic.Int64
	deleted  atomic.Int64
	rejected atomic.Int64
}

// Handle is one live session plus the lock serializing access to it.
type Handle struct {
	id      string
	created time.Time

	mu       sync.Mutex // guards sess, tr, meta and evicted
	sess     *clx.Session
	tr       *clx.Transformation
	meta     any
	evicted  bool
	lastUsed atomic.Int64 // unixnano, touched at Acquire and release
}

// ID returns the session id.
func (h *Handle) ID() string { return h.id }

// CreatedAt returns the creation time.
func (h *Handle) CreatedAt() time.Time { return h.created }

// LastUsed returns the time of the last Acquire or release.
func (h *Handle) LastUsed() time.Time { return time.Unix(0, h.lastUsed.Load()) }

// Session returns the wrapped session. Only valid between Acquire and
// its release func (or inside Create's registration), when the caller
// holds the handle lock.
func (h *Handle) Session() *clx.Session { return h.sess }

// Transformation returns the session's current labeled transformation,
// nil before the first label. Same locking contract as Session.
func (h *Handle) Transformation() *clx.Transformation { return h.tr }

// SetTransformation installs the transformation a label produced (the
// repair/commit endpoints act on it). Same locking contract as Session.
func (h *Handle) SetTransformation(tr *clx.Transformation) { h.tr = tr }

// Meta and SetMeta hang an opaque caller attachment off the handle (the
// daemon's repair ledger). Same locking contract as Session; cleared on
// eviction and deletion.
func (h *Handle) Meta() any     { return h.meta }
func (h *Handle) SetMeta(v any) { h.meta = v }

// New returns an empty store.
func New(cfg Config) *Store {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Store{cfg: cfg, m: make(map[string]*Handle)}
}

// Create registers a new session over data (the initial profile runs
// before Create returns, outside the store lock). A non-empty id pins
// the session id — the routing proxy mints ids so that rendezvous
// routing of later requests lands on the node that holds the session —
// otherwise one is generated. Returns ErrFull at capacity.
func (st *Store) Create(id string, data []string, opts clx.Options) (*Handle, error) {
	st.maybeSweep()
	if id == "" {
		id = "s-" + obs.NewRequestID()
	}
	now := st.cfg.Now()
	h := &Handle{id: id, created: now}
	h.lastUsed.Store(now.UnixNano())
	h.mu.Lock()

	st.mu.Lock()
	if st.cfg.MaxSessions > 0 && len(st.m) >= st.cfg.MaxSessions {
		st.mu.Unlock()
		st.rejected.Add(1)
		obsRejected.Inc()
		return nil, ErrFull
	}
	if _, dup := st.m[id]; dup {
		st.mu.Unlock()
		return nil, errors.New("sessionstore: duplicate session id " + id)
	}
	st.m[id] = h
	st.mu.Unlock()
	st.created.Add(1)
	obsCreated.Inc()
	obsActive.Add(1)

	// The slot is claimed; run the expensive initial profile holding only
	// the session lock. Concurrent Acquires of this id queue behind it.
	h.sess = clx.NewSession(data, opts)
	h.touch(st.cfg.Now())
	h.mu.Unlock()
	return h, nil
}

// Acquire locks the session id for exclusive use and returns the handle
// plus the release func the caller must run when done (it re-stamps the
// idle clock). Returns ErrNotFound for unknown or evicted ids.
func (st *Store) Acquire(id string) (*Handle, func(), error) {
	st.maybeSweep()
	st.mu.RLock()
	h := st.m[id]
	st.mu.RUnlock()
	if h == nil {
		return nil, nil, ErrNotFound
	}
	h.mu.Lock()
	if h.evicted {
		// Lost the race with the sweep or an explicit delete after we
		// fetched the handle.
		h.mu.Unlock()
		return nil, nil, ErrNotFound
	}
	h.touch(st.cfg.Now())
	return h, func() {
		h.touch(st.cfg.Now())
		h.mu.Unlock()
	}, nil
}

// Delete removes the session id, waiting out any in-flight use. Returns
// false if the id is unknown.
//
// Removing a handle from the map is the one point that counts it as
// deleted or evicted: Delete counts only the handle it removed, and
// Sweep removes (and counts) a handle only while the map still holds
// that very handle. So a Delete racing a Sweep that already holds the
// handle lock counts once, and a Sweep can never remove a newer session
// re-created under the same id.
func (st *Store) Delete(id string) bool {
	st.mu.Lock()
	h := st.m[id]
	delete(st.m, id)
	st.mu.Unlock()
	if h == nil {
		return false
	}
	h.mu.Lock()
	flipped := h.tombstone()
	h.mu.Unlock()
	if flipped {
		st.deleted.Add(1)
		obsDeleted.Inc()
		obsActive.Add(-1)
	}
	return true
}

// Sweep evicts every idle-expired session whose lock is free (a busy
// session is not idle) and returns how many it evicted. Handlers never
// need to call it — Create and Acquire sweep lazily — but tests drive it
// directly with an injected clock.
func (st *Store) Sweep() int {
	if st.cfg.TTL <= 0 {
		return 0
	}
	cutoff := st.cfg.Now().Add(-st.cfg.TTL).UnixNano()

	st.mu.RLock()
	var expired []*Handle
	for _, h := range st.m {
		if h.lastUsed.Load() <= cutoff {
			expired = append(expired, h)
		}
	}
	st.mu.RUnlock()

	n := 0
	for _, h := range expired {
		if !h.mu.TryLock() {
			continue // in use right now — by definition not idle
		}
		if st.evictLocked(h, cutoff) {
			n++
		}
		h.mu.Unlock()
	}
	return n
}

// evictLocked evicts h if it is still idle past cutoff and still the
// map's entry for its id. Caller holds h.mu.
func (st *Store) evictLocked(h *Handle, cutoff int64) bool {
	// Re-check under the lock: the use that just released it may have
	// refreshed the idle clock.
	if h.evicted || h.lastUsed.Load() > cutoff {
		return false
	}
	st.mu.Lock()
	if st.m[h.id] != h {
		// A Delete removed (and counts) h after the scan collected it;
		// the id may already name a new session.
		st.mu.Unlock()
		return false
	}
	delete(st.m, h.id)
	st.mu.Unlock()
	h.tombstone()
	st.evicted.Add(1)
	obsEvicted.Inc()
	obsActive.Add(-1)
	return true
}

// tombstone marks h gone and drops its state, reporting whether this
// call did the marking. Caller holds h.mu.
func (h *Handle) tombstone() bool {
	if h.evicted {
		return false
	}
	h.evicted = true
	h.sess = nil
	h.tr = nil
	h.meta = nil
	return true
}

// maybeSweep runs Sweep at most once per TTL/4, so the scan cost
// amortizes across requests instead of taxing each one.
func (st *Store) maybeSweep() {
	if st.cfg.TTL <= 0 {
		return
	}
	now := st.cfg.Now().UnixNano()
	last := st.lastSweep.Load()
	if now-last < int64(st.cfg.TTL/4) {
		return
	}
	if st.lastSweep.CompareAndSwap(last, now) {
		st.Sweep()
	}
}

// Len returns the live session count.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.m)
}

// RetryAfter estimates how long until the TTL frees a slot: the smallest
// remaining idle allowance across live sessions, at least a second. With
// eviction disabled it falls back to a flat second — the client can only
// poll.
func (st *Store) RetryAfter() time.Duration {
	if st.cfg.TTL <= 0 {
		return time.Second
	}
	now := st.cfg.Now().UnixNano()
	min := st.cfg.TTL
	st.mu.RLock()
	for _, h := range st.m {
		if left := st.cfg.TTL - time.Duration(now-h.lastUsed.Load()); left < min {
			min = left
		}
	}
	st.mu.RUnlock()
	if min < time.Second {
		min = time.Second
	}
	return min
}

// Info is one session's listing entry.
type Info struct {
	ID       string    `json:"id"`
	Created  time.Time `json:"created"`
	LastUsed time.Time `json:"last_used"`
}

// List returns the live sessions ordered by id. It reads only handle
// metadata — no session locks — so it never blocks behind a synthesis.
func (st *Store) List() []Info {
	st.mu.RLock()
	out := make([]Info, 0, len(st.m))
	for _, h := range st.m {
		out = append(out, Info{ID: h.id, Created: h.created, LastUsed: h.LastUsed()})
	}
	st.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats snapshots this store's lifecycle counters.
func (st *Store) Stats() Counters {
	return Counters{
		Active:   st.created.Load() - st.evicted.Load() - st.deleted.Load(),
		Created:  st.created.Load(),
		Evicted:  st.evicted.Load(),
		Deleted:  st.deleted.Load(),
		Rejected: st.rejected.Load(),
	}
}

func (h *Handle) touch(now time.Time) { h.lastUsed.Store(now.UnixNano()) }
