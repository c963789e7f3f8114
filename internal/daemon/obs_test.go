// Tests of the daemon observability layer: the /metrics exposition, the
// streaming admission cap (429 + Retry-After), request-ID propagation,
// and the structured access log.
package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"clx/internal/obs"
	"clx/internal/progstore"
)

// TestMetricsEndpoint drives traffic through the daemon and checks that
// GET /metrics serves the pipeline, cache, stream, and HTTP series in
// Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	mux := testMux(t)
	// Exercise the pipeline and a stream so the series carry values.
	request(t, mux, "POST", "/v1/transform",
		`{"rows":["(734) 645-8397","734.236.3466"],"target":"<D>3'-'<D>3'-'<D>4"}`)
	id := registerPhones(t, mux)
	request(t, mux, "POST", "/v1/programs/"+id+"/apply/stream", "(313) 263-1192\n")

	rec, raw := request(t, mux, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := string(raw)
	series := []string{
		"clx_http_requests_total",
		"clx_http_request_duration_seconds_bucket",
		"clx_streams_in_flight",
		"clx_streams_rejected_total",
		"clx_streams_total",
		"clx_stream_rows_total",
		"clx_stream_chunks_total",
		"clx_stream_flagged_total",
		"clx_stream_chunk_duration_seconds_sum",
		"clx_stage_duration_seconds_bucket{stage=\"profile\"",
		"clx_stage_duration_seconds_bucket{stage=\"synthesize\"",
		"clx_rematch_cache_hits_total",
		"clx_rematch_cache_misses_total",
		"clx_rematch_cache_evictions_total",
		"clx_wal_appends_total",
	}
	for _, s := range series {
		if !strings.Contains(body, s) {
			t.Errorf("metrics output missing series %q", s)
		}
	}
	// Traffic actually moved the HTTP counter.
	if !strings.Contains(body, "# TYPE clx_http_requests_total counter") {
		t.Errorf("missing TYPE line for clx_http_requests_total")
	}
}

// TestStreamAdmissionCap holds one stream slot open and checks that the
// next stream gets 429 with Retry-After and the uniform error envelope,
// while non-stream endpoints stay unaffected.
func TestStreamAdmissionCap(t *testing.T) {
	mux, _ := testMuxServer(t, Config{MaxStreams: 1})
	id := registerPhones(t, mux)

	// First stream: the body reader blocks until released, pinning the
	// single admission slot.
	bodyR, bodyW := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest("POST", "/v1/programs/"+id+"/apply/stream", bodyR)
		mux.ServeHTTP(httptest.NewRecorder(), req)
	}()
	if _, err := bodyW.Write([]byte("(313) 263-1192\n")); err != nil {
		t.Fatal(err)
	}

	// Second stream while the first holds the slot: 429.
	rec, raw := request(t, mux, "POST", "/v1/programs/"+id+"/apply/stream", "x\n")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, raw)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After header")
	}
	var env errorJSON
	if err := json.Unmarshal(raw, &env); err != nil || !strings.Contains(env.Error, "concurrent streams (limit 1)") {
		t.Fatalf("not the uniform envelope: %s", raw)
	}

	// Non-stream endpoints are not subject to the cap.
	if rec, _ := request(t, mux, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz under stream load: %d", rec.Code)
	}

	// Release the first stream; the slot frees and streaming works again.
	bodyW.Close()
	<-done
	rec, raw = request(t, mux, "POST", "/v1/programs/"+id+"/apply/stream", "(313) 263-1192\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-release stream status %d: %s", rec.Code, raw)
	}
	if _, trailer := parseStream(t, string(raw)); !trailer.Done {
		t.Fatalf("post-release trailer = %+v", trailer)
	}
}

// TestRequestIDPropagation checks both directions: a minted ID is echoed
// back, and a client-supplied X-Request-ID survives end to end.
func TestRequestIDPropagation(t *testing.T) {
	mux := testMux(t)
	rec, _ := request(t, mux, "GET", "/healthz", "")
	if rec.Header().Get("X-Request-ID") == "" {
		t.Fatalf("no minted X-Request-ID on response")
	}

	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-ID", "proxy-abc-123")
	rec2 := httptest.NewRecorder()
	mux.ServeHTTP(rec2, req)
	if got := rec2.Header().Get("X-Request-ID"); got != "proxy-abc-123" {
		t.Fatalf("client request ID not propagated: %q", got)
	}
}

// TestAccessLogJSON wires a buffer logger and checks one structured line
// per request with the expected fields.
func TestAccessLogJSON(t *testing.T) {
	st, err := progstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	h := New(st, Config{Logger: obs.NewLogger(&buf, "json")}).handler()

	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-ID", "trace-me")
	h.ServeHTTP(httptest.NewRecorder(), req)

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access log is not one JSON object: %q", buf.String())
	}
	if line["request_id"] != "trace-me" || line["path"] != "/healthz" ||
		line["method"] != "GET" || line["status"] != float64(http.StatusOK) {
		t.Fatalf("access log line = %v", line)
	}
	if _, ok := line["duration_ms"]; !ok {
		t.Fatalf("access log line missing duration_ms: %v", line)
	}
}

// TestMetricsFamilies pins the families /metrics exposes on a fresh
// single node: the sorted "# TYPE <name> <kind>" lines. A family dropped,
// renamed, changing kind, or rendered twice (once from the process-wide
// registry and once from an instance's) shows up here.
func TestMetricsFamilies(t *testing.T) {
	st, err := progstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	rec, raw := request(t, New(st, Config{}).Handler(), "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var got []string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			got = append(got, line)
		}
	}
	sort.Strings(got)
	want := []string{
		"# TYPE clx_automaton_compiled_total counter",
		"# TYPE clx_automaton_fallback_total counter",
		"# TYPE clx_http_request_duration_seconds histogram",
		"# TYPE clx_http_requests_total counter",
		"# TYPE clx_profile_appended_rows_total counter",
		"# TYPE clx_profile_distinct_values_total counter",
		"# TYPE clx_profile_incremental_runs_total counter",
		"# TYPE clx_profile_rows_total counter",
		"# TYPE clx_profile_runs_total counter",
		"# TYPE clx_proxy_retries_total counter",
		"# TYPE clx_proxy_routed_total counter",
		"# TYPE clx_proxy_stream_upstream_failures_total counter",
		"# TYPE clx_rematch_cache_evictions_total counter",
		"# TYPE clx_rematch_cache_hits_total counter",
		"# TYPE clx_rematch_cache_misses_total counter",
		"# TYPE clx_repl_records_applied_total counter",
		"# TYPE clx_repl_records_shipped_total counter",
		"# TYPE clx_repl_ship_errors_total counter",
		"# TYPE clx_repl_snapshots_installed_total counter",
		"# TYPE clx_repl_snapshots_pushed_total counter",
		"# TYPE clx_session_commits_total counter",
		"# TYPE clx_session_repairs_total counter",
		"# TYPE clx_session_stage_duration_seconds histogram",
		"# TYPE clx_sessions_active gauge",
		"# TYPE clx_sessions_created_total counter",
		"# TYPE clx_sessions_deleted_total counter",
		"# TYPE clx_sessions_evicted_total counter",
		"# TYPE clx_sessions_rejected_total counter",
		"# TYPE clx_stage_duration_seconds histogram",
		"# TYPE clx_stream_chunk_duration_seconds histogram",
		"# TYPE clx_stream_chunks_total counter",
		"# TYPE clx_stream_errors_total counter",
		"# TYPE clx_stream_flagged_total counter",
		"# TYPE clx_stream_peak_in_flight gauge",
		"# TYPE clx_stream_request_duration_seconds histogram",
		"# TYPE clx_stream_rows_total counter",
		"# TYPE clx_streams_admitted_total counter",
		"# TYPE clx_streams_in_flight gauge",
		"# TYPE clx_streams_rejected_total counter",
		"# TYPE clx_streams_total counter",
		"# TYPE clx_wal_append_duration_seconds histogram",
		"# TYPE clx_wal_appends_total counter",
		"# TYPE clx_wal_compaction_duration_seconds histogram",
		"# TYPE clx_wal_compactions_total counter",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/metrics families:\n got %q\nwant %q", got, want)
	}
}

// TestPerNodeRegistries runs two servers in one process: a session and a
// 429 on node 0 must not show on node 1, in /v1/stats or in /metrics.
// The admission and session ledgers belong to the node, not the process.
func TestPerNodeRegistries(t *testing.T) {
	mux0, srv0 := testMuxServer(t, Config{MaxStreams: 1})
	mux1, _ := testMuxServer(t, Config{MaxStreams: 1})

	if code, body, _ := sessionRequest(t, mux0, "POST", "/v1/sessions", `{"rows":["a1"]}`, ""); code != http.StatusCreated {
		t.Fatalf("create on node 0: %d %s", code, body)
	}
	id := registerPhones(t, mux0)
	release, ok := srv0.admission.Admit()
	if !ok {
		t.Fatal("could not hold node 0's slot")
	}
	rec, raw := request(t, mux0, "POST", "/v1/programs/"+id+"/apply/stream", "x\n")
	release()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("node 0 stream status %d, want 429: %s", rec.Code, raw)
	}

	for node, mux := range []http.Handler{mux0, mux1} {
		want := int64(1 - node)
		_, raw := request(t, mux, "GET", "/v1/stats", "")
		doc := mustJSON[statsDoc](t, raw)
		if got := doc["sessions"]["created"]; got != want {
			t.Errorf("node %d sessions.created = %d, want %d", node, got, want)
		}
		if got := doc["admission"]["rejected"]; got != want {
			t.Errorf("node %d admission.rejected = %d, want %d", node, got, want)
		}
		_, raw = request(t, mux, "GET", "/metrics", "")
		for _, series := range []string{"clx_sessions_created_total", "clx_streams_rejected_total"} {
			line := fmt.Sprintf("\n%s %d\n", series, want)
			if !strings.Contains(string(raw), line) {
				t.Errorf("node %d /metrics lacks %q", node, strings.TrimSpace(line))
			}
		}
	}
}
