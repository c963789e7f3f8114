// Command clxd serves the CLX engine over HTTP as a small JSON API, the
// packaging a data-wrangling front end or pipeline would integrate:
//
//	clxd -addr :8080 [-workers n] [-store dir] [-pprof addr]
//	     [-log-format text|json] [-max-streams n] [-followers urls]
//	     [-session-ttl d] [-max-sessions n]
//
//	POST /v1/cluster    {"rows": [...]}                 -> pattern clusters
//	POST /v1/transform  {"rows": [...], "target": "…",  -> program + output
//	                     "repairs": [{"source":0,"alt":1}]}
//	POST /v1/apply      {"rows": [...], "program": {…}} -> output (stateless)
//	GET  /v1/stats      counters as JSON: matcher cache, streaming,
//	                    automaton, profile index, admission, sessions,
//	                    replication
//	GET  /metrics       the same counters plus latency histograms, in
//	                    Prometheus text format
//	GET  /healthz
//
// Every request is traced: a request ID (minted, or taken from an incoming
// X-Request-ID header) rides the request context into the structured
// access log — one line per request, -log-format json or text — and into
// pprof goroutine labels, which worker goroutines inherit, so CPU profiles
// slice by request. GET /metrics serves the metric registries (pipeline
// stage latencies, streaming totals and per-chunk latency, matcher-cache
// hit/miss/evict, WAL append/compaction timings, HTTP request counts,
// this node's admission and session ledgers) in the Prometheus text
// exposition format with no third-party dependency. GET /v1/stats renders
// the same registries as JSON: each counter it shows is the one /metrics
// shows, read at the moment of the request.
//
// Concurrent streaming applies pass an admission semaphore that caps
// streams in flight at -max-streams (default 2× the CPU count): each
// stream holds a chunk window of memory, so unbounded admission would
// defeat the engine's bounded-memory guarantee. Rejected requests get 429
// with the uniform error envelope and a Retry-After header derived from
// an EWMA of recent stream durations (floor 1s, cap 30s), so the backoff
// hint tracks actual load. Both sides of every decision are counted in
// /v1/stats and /metrics (clx_streams_admitted_total,
// clx_streams_rejected_total), so a client can reconcile its observed
// 200/429 split exactly against the server's accounting.
//
// With -pprof <addr> the daemon additionally serves net/http/pprof on that
// address (kept off the API port so profile streaming bypasses its
// timeouts).
//
// With -store <dir> the daemon keeps a persistent program registry: the
// synthesize-once / apply-many split as API surface. Programs registered
// via POST /v1/programs survive restarts (append-only WAL + snapshot in
// <dir>) and are applied by id without any re-synthesis; every apply
// carries a drift report naming the live-data formats the stored program
// no longer covers. Without -store the registry is in-memory only.
//
//	POST   /v1/programs             {"rows": [...], "target": "…", "name": "…"}
//	GET    /v1/programs             registry listing (metadata only)
//	GET    /v1/programs/{id}        full entry incl. the auditable program
//	DELETE /v1/programs/{id}
//	POST   /v1/programs/{id}/apply  {"rows": [...]} -> output + drift report
//	POST   /v1/programs/{id}/apply/stream
//	    chunked bulk apply with bounded memory: the body is the raw column
//	    (?input=lines|ndjson|csv, ?col=, ?header=1 for csv; ?chunk= and
//	    ?workers= tune the pipeline), the response is NDJSON — one JSON
//	    string per transformed row in input order, flushed per chunk, then
//	    a trailer object with stream stats ({"done":true,...}) or an error
//	    frame if the source failed mid-stream
//
// Stateful interactive sessions hold the paper's cluster → label →
// transform → verify → repair loop server-side across requests, with
// incremental re-profiling on append and quantitatively-ranked repair
// candidates:
//
//	POST   /v1/sessions                {"rows": [...]} -> session id + profile
//	GET    /v1/sessions                registry listing (metadata only)
//	GET    /v1/sessions/{id}           profile, generation, staleness
//	GET    /v1/sessions/{id}/clusters  pattern hierarchy (?level=N)
//	POST   /v1/sessions/{id}/append    {"rows": [...]} incremental re-profile
//	POST   /v1/sessions/{id}/label     {"target": "…"} synthesize + install
//	GET    /v1/sessions/{id}/repair    ?source=N ranked candidate plans
//	POST   /v1/sessions/{id}/repair    {"source":i,"alt":j} or {"examples":{…}}
//	POST   /v1/sessions/{id}/commit    register into the program registry
//	DELETE /v1/sessions/{id}
//
// Sessions idle past -session-ttl are evicted; at most -max-sessions
// are held at once, and creates past the cap answer 429 with a
// Retry-After estimating the next expiry. A transformation labeled
// before an append answers 409 on repair/commit until re-labeled —
// staleness is an API-visible protocol, not a silent re-synthesis.
//
// With -followers <url,url,...> the daemon is a cluster replication
// leader: every program registration and deletion is shipped as WAL
// records to the listed follower clxd nodes (POST /v1/replication/wal)
// before the client is acknowledged, and a follower that restarts or
// falls behind is resynced with a full snapshot. The follower endpoints
// are always mounted, so any plain clxd can serve as a follower; put
// cmd/clxproxy in front to route reads across the fleet. The leader's
// shipping ledger rides /v1/stats under "replication".
//
// Target patterns accept both notations ("<D>3'-'<D>4" or
// "{digit}{3}-{digit}{4}"). The transform response carries, per source
// pattern, the rendered Replace operation, a before/after preview, and the
// ranked alternatives, so a client can implement the full
// verify-and-repair loop.
//
// Errors are a uniform JSON envelope {"error": "..."} with status 400
// (malformed request), 404 (unknown program id), or 413 (body over the
// request cap). The server carries read/write/idle timeouts and shuts
// down gracefully on SIGINT/SIGTERM, flushing the registry WAL into its
// snapshot before exiting.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"clx/internal/daemon"
	"clx/internal/fleet"
	"clx/internal/obs"
	"clx/internal/progstore"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0,
		"goroutine fan-out per request for profile/synthesize/transform (0 = one per CPU, 1 = serial)")
	storeDir := flag.String("store", "",
		"program registry directory (WAL + snapshot); empty keeps the registry in memory only")
	pprofAddr := flag.String("pprof", "",
		"serve net/http/pprof on this extra address (e.g. localhost:6060); empty disables it")
	logFormat := flag.String("log-format", "text",
		"structured request-log format: text or json")
	streams := flag.Int("max-streams", 0,
		"concurrent streaming-apply cap; requests over it get 429 + Retry-After (0 = 2× CPUs)")
	followersFlag := flag.String("followers", "",
		"comma-separated follower base URLs; when set this node is a replication "+
			"leader and ships every registry write to them before acknowledging")
	sessionTTL := flag.Duration("session-ttl", 0,
		"idle lifetime of an interactive /v1/sessions session before eviction "+
			"(0 = 15m default, negative disables eviction)")
	maxSessions := flag.Int("max-sessions", 0,
		"concurrent interactive sessions held in memory; creates past the cap get "+
			"429 + Retry-After (0 = 256 default, negative unbounded)")
	flag.Parse()

	if *pprofAddr != "" {
		// A separate listener so profiling endpoints never share the API
		// port (or its timeouts — CPU profiles stream for 30s+).
		go func() {
			log.Printf("clxd pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Print("clxd: pprof server: ", err)
			}
		}()
	}

	st, err := progstore.Open(*storeDir)
	if err != nil {
		log.Fatal("clxd: ", err)
	}
	var repl *fleet.Replicator
	if *followersFlag != "" {
		var urls []string
		for _, u := range strings.Split(*followersFlag, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		// The retry loop re-ships to followers that were down when a write
		// flushed, so a bounced follower converges without operator action.
		repl = fleet.NewReplicator(st, urls, fleet.ReplicatorOptions{RetryInterval: time.Second})
		defer repl.Close()
	}
	srv := daemon.New(st, daemon.Config{
		Workers:     *workers,
		MaxStreams:  *streams,
		Logger:      obs.NewLogger(os.Stderr, *logFormat),
		Replicator:  repl,
		SessionTTL:  *sessionTTL,
		MaxSessions: *maxSessions,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("clxd listening on %s (workers=%d, 0=auto; store=%q, followers=%q)",
		*addr, *workers, *storeDir, *followersFlag)

	select {
	case err := <-errc:
		st.Close()
		log.Fatal("clxd: ", err)
	case <-ctx.Done():
		stop()
		log.Print("clxd: signal received, shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Print("clxd: shutdown: ", err)
		}
		// Fold the registry WAL into its snapshot so the next start
		// recovers from a single file read.
		if err := st.Close(); err != nil {
			log.Fatal("clxd: registry close: ", err)
		}
	}
}
