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
	"strings"
	"time"

	clx "clx"
	"clx/internal/fleet"
	"clx/internal/obs"
	"clx/internal/progstore"
	"clx/internal/sessionstore"
)

// maxBody caps every request body; oversized bodies get the 413 envelope.
// A var so tests can shrink it.
var maxBody int64 = 32 << 20

// Config sizes one daemon server. The zero value is a working
// single-node daemon: default options, semaphore admission at 2× CPUs,
// no logging, no replication.
type Config struct {
	// Workers is the per-request goroutine fan-out (0 = one per CPU).
	Workers int
	// MaxStreams caps in-flight streaming applies (semaphore admission);
	// 0 means 2× GOMAXPROCS. Each stream holds up to chunk × MaxInFlight
	// rows, so admission must be bounded for the engine's fixed-memory
	// guarantee to survive a request burst; ~2 streams per CPU keeps the
	// workers busy without stacking windows.
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
// and this node's own metric registry. The admission ledger and the
// session repair/commit counts live there rather than in obs.Default, so
// an in-process cluster fixture reconciles each node's 200/429 split
// exactly; GET /metrics and GET /v1/stats both render it.
type server struct {
	store      *progstore.Store
	opts       clx.Options
	logger     *obs.Logger // nil logs nothing (tests)
	admission  *semaphoreAdmission
	streamEWMA durationEWMA
	repl       *fleet.Replicator
	sessions   *sessionstore.Store

	metrics                        obs.Registry
	admitted, rejected             *obs.Counter
	sessionRepairs, sessionCommits *obs.Counter
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
	s := &server{
		store:     st,
		opts:      opts,
		logger:    cfg.Logger,
		admission: newSemaphoreAdmission(slots),
		repl:      cfg.Replicator,
		sessions:  newSessionStore(cfg.SessionTTL, cfg.MaxSessions, cfg.SessionNow),
	}
	r := &s.metrics
	// Admission: admitted + rejected equals the streaming requests that
	// reached admission on this node, and rejected equals the 429s its
	// clients saw.
	s.admitted = r.Counter("clx_streams_admitted_total", "admission.admitted",
		"Streaming bulk-apply requests admitted by the admission policy.")
	s.rejected = r.Counter("clx_streams_rejected_total", "admission.rejected",
		"Streaming bulk-apply requests turned away with 429 (admission policy).")
	// In-flight is the semaphore slots held right now, never more than
	// MaxStreams: the load signal the least-loaded routing policy scrapes.
	r.GaugeFunc("clx_streams_in_flight", "admission.in_flight",
		"Streaming bulk-apply requests currently holding an admission slot.",
		func() int64 { return int64(s.admission.held()) })
	// The hint the next 429 would carry (EWMA of recent stream durations,
	// floor 1s, cap 30s); /v1/stats only.
	r.GaugeFunc("", "admission.retry_after_seconds", "Retry-After hint of the next 429.",
		func() int64 { return int64(s.streamEWMA.retryAfterSeconds()) })
	s.sessionRepairs = r.Counter("clx_session_repairs_total", "sessions.repairs",
		"Repairs applied through session endpoints (ranked picks and example feedback).")
	s.sessionCommits = r.Counter("clx_session_commits_total", "sessions.commits",
		"Session transformations committed into the program registry.")
	return s
}

// registries are what GET /metrics and GET /v1/stats render: the
// process-wide series, this server's own, and its session store's.
func (s *server) registries() []*obs.Registry {
	return []*obs.Registry{obs.Default, &s.metrics, s.sessions.Metrics()}
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
	mux.Handle("GET /metrics", obs.Handler(s.registries()...))
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

// replicationSection is the replication slice of /v1/stats: every node
// reports its own log position and apply/install counters; a leader
// additionally reports its shipping ledger.
type replicationSection struct {
	LastIdx            int64                  `json:"last_idx"`
	RecordsApplied     int64                  `json:"records_applied"`
	SnapshotsInstalled int64                  `json:"snapshots_installed"`
	Leader             *fleet.ReplicatorStats `json:"leader,omitempty"`
}

// handleStats serves GET /v1/stats: every metric in the registries that
// declares a stats key, nested by its "section.field" key — the same
// counters GET /metrics renders — plus the replication section.
func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
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
	doc := map[string]any{"replication": repl}
	for _, reg := range s.registries() {
		for key, v := range reg.Stats() {
			section, field, _ := strings.Cut(key, ".")
			sec, _ := doc[section].(map[string]int64)
			if sec == nil {
				sec = make(map[string]int64)
				doc[section] = sec
			}
			sec[field] = v
		}
	}
	writeJSON(w, http.StatusOK, doc)
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
