// Tests of the streaming bulk-apply endpoint: frame protocol, input
// framings, the error envelope before the first byte vs the error frame
// after it, the body cap, client disconnects, and goroutine hygiene.
package daemon

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// registerPhones registers the standard phone program and returns its id.
func registerPhones(t *testing.T, mux http.Handler) string {
	t.Helper()
	rec, raw := request(t, mux, "POST", "/v1/programs",
		`{"rows":["(734) 645-8397","(734)586-7252","734.236.3466","734-422-8073"],`+
			`"target":"<D>3'-'<D>3'-'<D>4","name":"phones"}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("register status %d: %s", rec.Code, raw)
	}
	var entry programEntryJSON
	if err := json.Unmarshal(raw, &entry); err != nil {
		t.Fatal(err)
	}
	return entry.ID
}

// parseStream splits an NDJSON response into data rows and the trailer.
func parseStream(t *testing.T, body string) (rows []string, trailer streamTrailer) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatalf("empty stream response")
	}
	for _, ln := range lines[:len(lines)-1] {
		var v string
		if err := json.Unmarshal([]byte(ln), &v); err != nil {
			t.Fatalf("data frame %q is not a JSON string: %v", ln, err)
		}
		rows = append(rows, v)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("trailer %q: %v", lines[len(lines)-1], err)
	}
	return rows, trailer
}

func TestStreamApplyLines(t *testing.T) {
	mux := testMux(t)
	id := registerPhones(t, mux)
	body := "(313) 263-1192\nN/A\n734.236.3466"
	rec, raw := request(t, mux, "POST", "/v1/programs/"+id+"/apply/stream?chunk=2&workers=2", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, raw)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	rows, trailer := parseStream(t, string(raw))
	want := []string{"313-263-1192", "N/A", "734-236-3466"}
	if len(rows) != len(want) {
		t.Fatalf("rows = %q, want %q", rows, want)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d = %q, want %q", i, rows[i], want[i])
		}
	}
	if !trailer.Done || trailer.Error != "" || trailer.Rows != 3 || trailer.Chunks != 2 ||
		trailer.Flagged != 1 || len(trailer.FlaggedRows) != 1 || trailer.FlaggedRows[0] != 1 {
		t.Fatalf("trailer = %+v", trailer)
	}
	if trailer.ID != id || trailer.Version != 1 {
		t.Fatalf("trailer identity = %s v%d", trailer.ID, trailer.Version)
	}
}

func TestStreamApplyCSV(t *testing.T) {
	mux := testMux(t)
	id := registerPhones(t, mux)
	body := "name,phone\n\"Fisher, Kate\",(313) 263-1192\nBob,734.236.3466\n"
	rec, raw := request(t, mux, "POST",
		"/v1/programs/"+id+"/apply/stream?input=csv&col=1&header=1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, raw)
	}
	rows, trailer := parseStream(t, string(raw))
	if len(rows) != 2 || rows[0] != "313-263-1192" || rows[1] != "734-236-3466" {
		t.Fatalf("rows = %q", rows)
	}
	if !trailer.Done || trailer.Rows != 2 || trailer.Flagged != 0 {
		t.Fatalf("trailer = %+v", trailer)
	}
}

// Pre-stream failures use the uniform JSON error envelope with the right
// status; nothing of the NDJSON protocol leaks into them.
func TestStreamApplyErrorEnvelope(t *testing.T) {
	mux := testMux(t)
	id := registerPhones(t, mux)
	oldMax := maxBody
	maxBody = 64
	defer func() { maxBody = oldMax }()

	cases := []struct {
		name, path, body string
		status           int
		errSubstr        string
	}{
		{"unknown-id", "/v1/programs/nope/apply/stream", "x", http.StatusNotFound, "not found"},
		{"body-over-cap", "/v1/programs/" + id + "/apply/stream",
			strings.Repeat("7342368073\n", 20), http.StatusRequestEntityTooLarge, "cap"},
		{"bad-input-format", "/v1/programs/" + id + "/apply/stream?input=xml", "x",
			http.StatusBadRequest, "unknown input format"},
		{"bad-chunk", "/v1/programs/" + id + "/apply/stream?chunk=many", "x",
			http.StatusBadRequest, "chunk"},
		{"bad-workers", "/v1/programs/" + id + "/apply/stream?workers=-x", "x",
			http.StatusBadRequest, "workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, raw := request(t, mux, "POST", tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, raw)
			}
			var env errorJSON
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("not an error envelope: %s", raw)
			}
			if !strings.Contains(env.Error, tc.errSubstr) {
				t.Fatalf("error %q does not mention %q", env.Error, tc.errSubstr)
			}
		})
	}
}

// A source that turns malformed after the 200 is committed surfaces as an
// error frame in place of the done trailer; rows admitted before the
// error still arrive.
func TestStreamApplyMidStreamErrorFrame(t *testing.T) {
	mux := testMux(t)
	id := registerPhones(t, mux)
	body := "\"(313) 263-1192\"\nnot json\n\"734.236.3466\"\n"
	rec, raw := request(t, mux, "POST",
		"/v1/programs/"+id+"/apply/stream?input=ndjson&chunk=1&workers=1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, raw)
	}
	rows, trailer := parseStream(t, string(raw))
	if len(rows) != 1 || rows[0] != "313-263-1192" {
		t.Fatalf("rows before the error = %q", rows)
	}
	if trailer.Done || !strings.Contains(trailer.Error, "ndjson row 2") {
		t.Fatalf("trailer = %+v", trailer)
	}
}

// disconnectWriter fails every write after the first — the shape of a
// client that went away mid-stream.
type disconnectWriter struct {
	h      http.Header
	writes int
}

func (w *disconnectWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *disconnectWriter) WriteHeader(int) {}
func (w *disconnectWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, fmt.Errorf("broken pipe")
	}
	return len(p), nil
}

// A disconnect aborts the pipeline without leaking worker goroutines and
// counts as a stream error in /v1/stats.
func TestStreamApplyClientDisconnect(t *testing.T) {
	mux := testMux(t)
	id := registerPhones(t, mux)
	var column strings.Builder
	for i := 0; i < 50000; i++ {
		column.WriteString("(313) 263-1192\n")
	}
	before := runtime.NumGoroutine()
	req := httptest.NewRequest("POST",
		"/v1/programs/"+id+"/apply/stream?chunk=64&workers=4", strings.NewReader(column.String()))
	dw := &disconnectWriter{}
	mux.ServeHTTP(dw, req)
	if dw.writes < 2 {
		t.Fatalf("writer saw %d writes; the stream never started", dw.writes)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: %d before, %d after disconnect", before, n)
	}

	rec, raw := request(t, mux, "GET", "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var stats statsDoc
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if sc := stats["streaming"]; sc["streams"] < 1 || sc["errors"] < 1 {
		t.Fatalf("streaming counters = %v", sc)
	}
}

// TestStreamApplyFullDuplexTrickle pins the bidirectional contract over a
// real connection: response headers and the first result frame must reach
// a client that is still trickling request rows. Without full-duplex mode
// the server drains 256KiB of unread request body before releasing the
// headers (net/http's post-handler drain), which stalls a slow producer
// behind its own unsent rows for over a minute — and silently discards
// the drained rows from the apply.
func TestStreamApplyFullDuplexTrickle(t *testing.T) {
	mux, _ := testMuxServer(t, Config{})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	resp, err := http.Post(hs.URL+"/v1/programs", "application/json",
		strings.NewReader(`{"rows":["(734) 645-8397","(734)586-7252"],`+
			`"target":"<D>3'-'<D>3'-'<D>4","id":"duplex"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status %d", resp.StatusCode)
	}

	// Trickle one row every 2ms through a chunked body that only ends
	// once the test has what it needs.
	pr, pw := io.Pipe()
	stop := make(chan struct{})
	var stopOnce sync.Once
	stopFeed := func() { stopOnce.Do(func() { close(stop) }) }
	go func() {
		defer pw.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := io.WriteString(pw, "(313) 263-1192\n"); err != nil {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	defer stopFeed()

	req, err := http.NewRequest("POST", hs.URL+"/v1/programs/duplex/apply/stream?chunk=1", pr)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("stream request: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp2.StatusCode)
	}
	line, err := bufio.NewReader(resp2.Body).ReadString('\n')
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("first frame took %v; the stream is not full-duplex", elapsed)
	}
	var row string
	if err := json.Unmarshal([]byte(line), &row); err != nil {
		t.Fatalf("first frame %q: %v", line, err)
	}
	if row != "313-263-1192" {
		t.Fatalf("first frame = %q, want %q", row, "313-263-1192")
	}
	stopFeed()
	io.Copy(io.Discard, resp2.Body)
}
