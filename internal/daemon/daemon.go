// Package daemon is the clxd HTTP server as an importable library: the
// route mux, the JSON envelopes, the streaming admission machinery, and
// the replication endpoints that make a node a WAL-replication follower.
// Command clxd is a thin flag wrapper over New/Handler; the in-process
// cluster fixtures (internal/fleet/fleettest) run N of these servers in
// one test binary, which is what makes the differential cluster-parity
// harness cheap enough to sweep every routing policy × node count.
package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	clx "clx"
	"clx/internal/automaton"
	"clx/internal/fleet"
	"clx/internal/obs"
	"clx/internal/progstore"
	"clx/internal/rematch"
	"clx/internal/sessionstore"
	"clx/internal/stream"
)

// maxStreams caps concurrent streaming applies: it is the admission
// semaphore's slot count. Each stream holds up to chunk × MaxInFlight
// rows, so admission must be bounded for the engine's fixed-memory
// guarantee to survive a request burst. ~2 streams per CPU keeps the
// workers busy without stacking windows. A var so tests can override it
// before newServer; external callers size it via Config.MaxStreams.
var maxStreams = 2 * runtime.GOMAXPROCS(0)

// maxBody caps every request body; oversized bodies get the 413 envelope.
// A var so tests can shrink it.
var maxBody int64 = 32 << 20

// Interactive-session defaults (see sessionstore). Vars so tests can
// override them before newServer; external callers use Config.
var (
	sessionTTL     = 15 * time.Minute
	sessionMax     = 256
	sessionNowFunc func() time.Time // nil = time.Now
)

// Config sizes one daemon server. The zero value is a working
// single-node daemon: default options, semaphore admission at 2× CPUs,
// no logging, no replication.
type Config struct {
	// Workers is the per-request goroutine fan-out (0 = one per CPU).
	Workers int
	// MaxStreams caps in-flight streaming applies (semaphore admission);
	// 0 means 2× GOMAXPROCS.
	MaxStreams int
	// Logger receives structured access logs; nil logs nothing.
	Logger *obs.Logger
	// Replicator, when set, makes this node a replication leader: every
	// registry write is flushed to the followers before the client is
	// acknowledged, and the leader's shipping ledger joins /v1/stats.
	Replicator *fleet.Replicator
	// SessionTTL is the idle lifetime of interactive sessions: 0 means
	// the 15m default, negative disables TTL eviction.
	SessionTTL time.Duration
	// MaxSessions bounds live interactive sessions (creates past it get
	// 429 + Retry-After): 0 means the default of 256, negative unbounded.
	MaxSessions int
	// SessionNow injects the session-store clock for deterministic
	// eviction tests; nil means time.Now.
	SessionNow func() time.Time
}

// Server is one clxd node: the program registry plus everything around
// it — admission, observability, and (optionally) a replication role.
type Server = server

// server carries the shared daemon state: the program registry, the
// request logger, the streaming admission semaphore, the stream-duration
// EWMA behind the Retry-After hint, an optional leader-side replicator,
// and this node's own admission ledger (the process-global obs counters
// sum over every node in the process; these don't, which is what lets an
// in-process cluster fixture reconcile per-node 200/429 splits exactly).
type server struct {
	store      *progstore.Store
	opts       clx.Options
	logger     *obs.Logger // nil logs nothing (tests)
	admission  *semaphoreAdmission
	streamEWMA durationEWMA
	repl       *fleet.Replicator
	sessions   *sessionstore.Store

	admitted atomic.Int64
	rejected atomic.Int64
	inFlight atomic.Int64

	sessionRepairs atomic.Int64
	sessionCommits atomic.Int64
}

// newSessionStore resolves the session config defaults: ttl 0 → 15m,
// negative → eviction off; max 0 → 256, negative → unbounded.
func newSessionStore(ttl time.Duration, max int, now func() time.Time) *sessionstore.Store {
	switch {
	case ttl == 0:
		ttl = 15 * time.Minute
	case ttl < 0:
		ttl = 0
	}
	switch {
	case max == 0:
		max = 256
	case max < 0:
		max = 0
	}
	return sessionstore.New(sessionstore.Config{TTL: ttl, MaxSessions: max, Now: now})
}

// New builds a server over st from cfg.
func New(st *progstore.Store, cfg Config) *Server {
	slots := cfg.MaxStreams
	if slots <= 0 {
		slots = 2 * runtime.GOMAXPROCS(0)
	}
	opts := clx.DefaultOptions()
	opts.Workers = cfg.Workers
	return &server{
		store:     st,
		opts:      opts,
		logger:    cfg.Logger,
		admission: newSemaphoreAdmission(slots),
		repl:      cfg.Replicator,
		sessions:  newSessionStore(cfg.SessionTTL, cfg.MaxSessions, cfg.SessionNow),
	}
}

// newServer is the test-side constructor: it reads the package-level
// default vars, which the admission and body-cap tests override in place.
func newServer(st *progstore.Store) *server {
	return &server{
		store:     st,
		opts:      clx.DefaultOptions(),
		admission: newSemaphoreAdmission(maxStreams),
		sessions:  newSessionStore(sessionTTL, sessionMax, sessionNowFunc),
	}
}

// Handler is the complete daemon handler: the route mux wrapped in the
// tracing/logging/metrics middleware.
func (s *server) Handler() http.Handler { return s.handler() }

func (s *server) handler() http.Handler { return s.withObs(s.mux()) }

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", obs.Handler())
	mux.HandleFunc("POST /v1/cluster", s.handleCluster)
	mux.HandleFunc("POST /v1/transform", s.handleTransform)
	mux.HandleFunc("POST /v1/tables/unify", s.handleUnify)
	mux.HandleFunc("POST /v1/apply", s.handleApply)
	mux.HandleFunc("POST /v1/programs", s.handleProgramRegister)
	mux.HandleFunc("GET /v1/programs", s.handleProgramList)
	mux.HandleFunc("GET /v1/programs/{id}", s.handleProgramGet)
	mux.HandleFunc("DELETE /v1/programs/{id}", s.handleProgramDelete)
	mux.HandleFunc("POST /v1/programs/{id}/apply", s.handleProgramApply)
	mux.HandleFunc("POST /v1/programs/{id}/apply/stream", s.handleProgramApplyStream)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /v1/sessions/{id}/clusters", s.handleSessionClusters)
	mux.HandleFunc("POST /v1/sessions/{id}/append", s.handleSessionAppend)
	mux.HandleFunc("POST /v1/sessions/{id}/label", s.handleSessionLabel)
	mux.HandleFunc("GET /v1/sessions/{id}/repair", s.handleSessionRepairCandidates)
	mux.HandleFunc("POST /v1/sessions/{id}/repair", s.handleSessionRepair)
	mux.HandleFunc("POST /v1/sessions/{id}/commit", s.handleSessionCommit)
	mux.HandleFunc("POST /v1/replication/wal", s.handleReplicationWAL)
	mux.HandleFunc("POST /v1/replication/snapshot", s.handleReplicationSnapshot)
	mux.HandleFunc("GET /v1/replication/status", s.handleReplicationStatus)
	return mux
}

// flushReplication pushes a just-committed registry write to every
// follower before the client is acknowledged. Synchronous-at-the-handler
// is the property the cluster-parity harness leans on: when the leader's
// response reaches the proxy, any node can serve the program.
func (s *server) flushReplication() {
	if s.repl != nil {
		s.repl.Flush()
	}
}

// handleReplicationWAL is the follower half of WAL shipping: apply a
// contiguous batch of the leader's log records through the same code
// path crash recovery replays them. A gap or position mismatch gets 409
// plus this node's actual position, telling the leader to resync by
// snapshot; duplicates (at-least-once delivery) are acknowledged as
// already applied.
func (s *server) handleReplicationWAL(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[fleet.WALShipRequest](w, r)
	if !ok {
		return
	}
	for _, rec := range req.Records {
		if err := s.store.ApplyRecord(rec); err != nil {
			if errors.Is(err, progstore.ErrOutOfOrder) {
				writeJSON(w, http.StatusConflict, fleet.ReplResponse{
					LastIdx: s.store.LastIdx(), Error: err.Error(),
				})
				return
			}
			writeJSON(w, http.StatusInternalServerError, fleet.ReplResponse{
				LastIdx: s.store.LastIdx(), Error: err.Error(),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, fleet.ReplResponse{LastIdx: s.store.LastIdx()})
}

// handleReplicationSnapshot installs a full leader state, replacing
// whatever this node held — the resync path for followers that joined
// late, restarted empty, or fell behind a WAL compaction.
func (s *server) handleReplicationSnapshot(w http.ResponseWriter, r *http.Request) {
	st, ok := decode[progstore.State](w, r)
	if !ok {
		return
	}
	if err := s.store.InstallState(st); err != nil {
		writeJSON(w, http.StatusInternalServerError, fleet.ReplResponse{
			LastIdx: s.store.LastIdx(), Error: err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, fleet.ReplResponse{LastIdx: s.store.LastIdx()})
}

// replicationStatus is the GET /v1/replication/status document: the
// node's log position and a fingerprint of its full registry state, the
// two values convergence checks compare across nodes.
type replicationStatus struct {
	Fingerprint string `json:"fingerprint"`
	progstore.ReplicationStats
}

func (s *server) handleReplicationStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, replicationStatus{
		Fingerprint:      s.store.Fingerprint(),
		ReplicationStats: s.store.ReplicationStats(),
	})
}

// statsResponse is the GET /v1/stats document: process-level counters a
// deployment scrapes to watch the daemon — the compiled-matcher cache
// (hit/miss/evict), the streaming bulk-apply totals, the automaton
// compilation totals, this node's streaming admission ledger (both sides
// of every decision, counted per node so a cluster proxy or load
// generator can reconcile each node's observed 200/429 split exactly),
// the profile-index counters, and the node's replication position — plus, on a leader, the follower
// shipping ledger.
type statsResponse struct {
	MatcherCache rematch.CacheStats       `json:"matcher_cache"`
	Streaming    stream.Counters          `json:"streaming"`
	Automaton    automaton.Counters       `json:"automaton"`
	Admission    admissionStats           `json:"admission"`
	ProfileIndex clx.ProfileIndexCounters `json:"profile_index"`
	Sessions     sessionsStats            `json:"sessions"`
	Replication  replicationSection       `json:"replication"`
}

// sessionsStats is the interactive-sessions section of /v1/stats: this
// node's session-store lifecycle ledger (active = created - evicted -
// deleted, exactly) plus the repair/commit activity its handlers served.
type sessionsStats struct {
	sessionstore.Counters
	Repairs int64 `json:"repairs"`
	Commits int64 `json:"commits"`
}

// admissionStats is the admission section of /v1/stats. The counters are
// this server's own, not the process totals: an in-process multi-node
// fixture gets an exact per-node ledger.
type admissionStats struct {
	// Admitted and Rejected count every decision on this node;
	// admitted + rejected equals the streaming requests that reached
	// admission, and rejected equals the 429s clients saw from it.
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	// InFlight is this node's streams-in-flight gauge: the semaphore
	// slots held right now, never more than MaxStreams. It is the load
	// signal the least-loaded routing policy scrapes.
	InFlight int64 `json:"in_flight"`
	// RetryAfterSeconds is the hint the next 429 would carry (EWMA of
	// recent stream durations, floor 1s, cap 30s).
	RetryAfterSeconds int `json:"retry_after_seconds"`
}

// replicationSection is the replication slice of /v1/stats: every node
// reports its own log position and apply/install counters; a leader
// additionally reports its shipping ledger.
type replicationSection struct {
	LastIdx            int64                  `json:"last_idx"`
	RecordsApplied     int64                  `json:"records_applied"`
	SnapshotsInstalled int64                  `json:"snapshots_installed"`
	Leader             *fleet.ReplicatorStats `json:"leader,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	rs := s.store.ReplicationStats()
	repl := replicationSection{
		LastIdx:            rs.LastIdx,
		RecordsApplied:     rs.RecordsApplied,
		SnapshotsInstalled: rs.SnapshotsInstalled,
	}
	if s.repl != nil {
		ls := s.repl.Stats()
		repl.Leader = &ls
	}
	writeJSON(w, http.StatusOK, statsResponse{
		MatcherCache: rematch.Stats(),
		Streaming:    stream.GlobalStats(),
		Automaton:    automaton.GlobalStats(),
		Admission: admissionStats{
			Admitted:          s.admitted.Load(),
			Rejected:          s.rejected.Load(),
			InFlight:          s.inFlight.Load(),
			RetryAfterSeconds: s.streamEWMA.retryAfterSeconds(),
		},
		ProfileIndex: clx.ProfileIndexStats(),
		Sessions: sessionsStats{
			Counters: s.sessions.Stats(),
			Repairs:  s.sessionRepairs.Load(),
			Commits:  s.sessionCommits.Load(),
		},
		Replication: repl,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false) // keep "<D>3" readable
	_ = enc.Encode(v)
}

// errorJSON is the uniform error envelope every failure path returns.
type errorJSON struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

func decode[T any](w http.ResponseWriter, r *http.Request) (T, bool) {
	var v T
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, err)
		}
		return v, false
	}
	return v, true
}
