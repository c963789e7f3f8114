// Daemon-side observability: the middleware every clxd request passes
// through. It mints (or propagates) a request ID, carries it via context
// into structured access logs and pprof goroutine labels — worker
// goroutines inherit the labels of the handler that spawned them, so a
// CPU profile slices by request_id and path — and feeds the HTTP-level
// metric series served at GET /metrics.
package daemon

import (
	"context"
	"net/http"
	"runtime/pprof"
	"time"

	"clx/internal/obs"
)

var (
	httpRequests = obs.NewCounter("clx_http_requests_total", "",
		"HTTP requests served by clxd (all endpoints).")
	httpDur = obs.NewHistogram("clx_http_request_duration_seconds",
		"End-to-end clxd request latency, middleware included.", nil)
	streamReqDur = obs.NewHistogram("clx_stream_request_duration_seconds",
		"End-to-end admitted streaming-apply duration (admission to trailer flush).", nil)
)

// withObs wraps next with request tracing, access logging, and HTTP
// metrics. The request ID comes from an incoming X-Request-ID header when
// the client supplies one (so a proxy's ID survives end to end) and is
// minted otherwise; either way it is echoed back in the response header.
func (s *server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		ctx := obs.WithRequestID(r.Context(), id)
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}

		t0 := time.Now()
		// pprof.Do labels this goroutine for the duration of the handler;
		// goroutines the handler spawns (the parallel pipeline, streaming
		// chunk workers) inherit the labels, so profiles attribute worker
		// CPU to the request that caused it.
		pprof.Do(ctx, pprof.Labels("request_id", id, "path", r.URL.Path), func(ctx context.Context) {
			next.ServeHTTP(sw, r.WithContext(ctx))
		})
		d := time.Since(t0)

		httpRequests.Inc()
		httpDur.Observe(d)
		s.logger.Log(ctx, "request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"duration_ms", float64(d.Microseconds())/1e3,
		)
	})
}

// statusWriter captures the status code and body size for the access log
// while passing flushes through — the streaming endpoint depends on
// per-chunk flushes reaching the client.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush satisfies http.Flusher so the stream handler's flusher probe finds
// it; a non-flushing underlying writer makes it a no-op.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
