// Tests of the interactive-session endpoints: the end-to-end smoke loop
// (make session-smoke runs TestSessionSmoke under -race), the staleness
// 409 protocol, capacity admission, and TTL eviction over HTTP with an
// injected clock.
package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	clx "clx"
	"clx/internal/benchsuite"
	"clx/internal/cluster"
	"clx/internal/dataset"
	"clx/internal/pattern"
	"clx/internal/progstore"
	"clx/internal/sessionstore"
	"clx/internal/simuser"
)

// sessionRequest is the request helper plus the X-Session-ID pinning
// header the routing proxy uses.
func sessionRequest(t *testing.T, h http.Handler, method, path, body, pinID string) (int, []byte, http.Header) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if pinID != "" {
		req.Header.Set("X-Session-ID", pinID)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes(), w.Header()
}

func mustJSON[T any](t *testing.T, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("unmarshal %T from %s: %v", v, body, err)
	}
	return v
}

// TestSessionSmoke is the full paper loop over HTTP — create → browse
// clusters → append → label → scored repair candidates → repair →
// commit — ending with counter reconciliation against /v1/stats and a
// byte-parity check: the committed program applied via
// /v1/programs/{id}/apply must reproduce the library-level
// transformation exactly, repair included.
func TestSessionSmoke(t *testing.T) {
	st, err := progstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	h := New(st, Config{}).handler()

	seed := []string{"31/12/2019", "28/02/2020", "12-31-2019"}
	appended := []string{"01/07/2021", "15/08/2021"}
	const target = "<D>2'-'<D>2'-'<D>4"

	// Create, with a proxy-style pinned id.
	code, body, _ := sessionRequest(t, h, "POST", "/v1/sessions",
		`{"rows":["31/12/2019","28/02/2020","12-31-2019"]}`, "s-pin-1")
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	info := mustJSON[sessionJSON](t, body)
	if info.ID != "s-pin-1" || info.Rows != len(seed) || info.Labeled {
		t.Fatalf("create info = %+v", info)
	}

	// Browse the hierarchy: top clusters, then an explicit level.
	code, body, _ = sessionRequest(t, h, "GET", "/v1/sessions/s-pin-1/clusters", "", "")
	if code != http.StatusOK {
		t.Fatalf("clusters: %d %s", code, body)
	}
	top := mustJSON[clusterResponse](t, body)
	if len(top.Clusters) == 0 || top.Clusters[0].Pattern == "" {
		t.Fatalf("clusters = %+v", top)
	}
	code, body, _ = sessionRequest(t, h, "GET", "/v1/sessions/s-pin-1/clusters?level=0", "", "")
	if code != http.StatusOK {
		t.Fatalf("clusters level 0: %d %s", code, body)
	}
	if code, body, _ := sessionRequest(t, h, "GET", "/v1/sessions/s-pin-1/clusters?level=99", "", ""); code != http.StatusBadRequest {
		t.Fatalf("clusters level 99: %d %s", code, body)
	}

	// Append grows the column incrementally.
	code, body, _ = sessionRequest(t, h, "POST", "/v1/sessions/s-pin-1/append",
		`{"rows":["01/07/2021","15/08/2021"]}`, "")
	if code != http.StatusOK {
		t.Fatalf("append: %d %s", code, body)
	}
	ap := mustJSON[sessionAppendResponse](t, body)
	if ap.Rows != len(seed)+len(appended) || ap.Appended != len(appended) || ap.Generation == 0 {
		t.Fatalf("append = %+v", ap)
	}

	// Label over the grown column.
	code, body, _ = sessionRequest(t, h, "POST", "/v1/sessions/s-pin-1/label",
		fmt.Sprintf(`{"target":"%s"}`, strings.ReplaceAll(target, `"`, `\"`)), "")
	if code != http.StatusOK {
		t.Fatalf("label: %d %s", code, body)
	}
	lab := mustJSON[sessionLabelResponse](t, body)
	if len(lab.Ops) == 0 || len(lab.Sources) == 0 || lab.Sources[0].Plans < 2 {
		t.Fatalf("label = %+v", lab)
	}

	// Scored repair candidates for source 0, best-first.
	code, body, _ = sessionRequest(t, h, "GET", "/v1/sessions/s-pin-1/repair?source=0", "", "")
	if code != http.StatusOK {
		t.Fatalf("candidates: %d %s", code, body)
	}
	cands := mustJSON[repairCandidatesResponse](t, body)
	if len(cands.Candidates) != lab.Sources[0].Plans {
		t.Fatalf("candidates = %d, label said %d", len(cands.Candidates), lab.Sources[0].Plans)
	}
	pick := repairCandidateJSON{Alt: -1}
	for _, c := range cands.Candidates {
		if c.Selected {
			if c.EditDistance != 0 {
				t.Errorf("selected candidate edit distance = %d", c.EditDistance)
			}
		} else if pick.Alt < 0 {
			pick = c
		}
	}
	if pick.Alt < 0 {
		t.Fatal("no non-selected candidate to repair with")
	}

	// Apply the ranked pick.
	code, body, _ = sessionRequest(t, h, "POST", "/v1/sessions/s-pin-1/repair",
		fmt.Sprintf(`{"source":%d,"alt":%d}`, pick.Source, pick.Alt), "")
	if code != http.StatusOK {
		t.Fatalf("repair: %d %s", code, body)
	}

	// Commit into the program registry.
	code, body, _ = sessionRequest(t, h, "POST", "/v1/sessions/s-pin-1/commit",
		`{"name":"dates"}`, "")
	if code != http.StatusCreated {
		t.Fatalf("commit: %d %s", code, body)
	}
	entry := mustJSON[programEntryJSON](t, body)
	if entry.ID == "" || entry.Name != "dates" || len(entry.Program) == 0 {
		t.Fatalf("commit entry = %+v", entry)
	}
	if len(entry.Repairs) != 1 || entry.Repairs[0].Source != pick.Source || entry.Repairs[0].Alt != pick.Alt {
		t.Fatalf("commit repairs = %+v, want the session's pick", entry.Repairs)
	}

	// Byte-parity: the registered program must reproduce the library path
	// (same data, same label, same repair) exactly.
	sess := clx.NewSession(append(append([]string(nil), seed...), appended...))
	tr, err := sess.Label(clx.MustParsePattern(target))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Repair(pick.Source, pick.Alt); err != nil {
		t.Fatal(err)
	}
	wantOut, _ := tr.Run()

	code, body, _ = sessionRequest(t, h, "POST", "/v1/programs/"+entry.ID+"/apply",
		`{"rows":["31/12/2019","28/02/2020","12-31-2019","01/07/2021","15/08/2021"]}`, "")
	if code != http.StatusOK {
		t.Fatalf("program apply: %d %s", code, body)
	}
	applied := mustJSON[progstore.ApplyResult](t, body)
	if len(applied.Output) != len(wantOut) {
		t.Fatalf("apply output = %d rows, want %d", len(applied.Output), len(wantOut))
	}
	for i := range wantOut {
		if applied.Output[i] != wantOut[i] {
			t.Fatalf("apply parity broken at %d: %q != %q", i, applied.Output[i], wantOut[i])
		}
	}

	// Counter reconciliation: this server saw exactly one session created,
	// one repair, one commit; the session is still live.
	code, body, _ = sessionRequest(t, h, "GET", "/v1/stats", "", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	ss := mustJSON[statsDoc](t, body)["sessions"]
	if ss["created"] != 1 || ss["active"] != 1 || ss["evicted"] != 0 || ss["deleted"] != 0 ||
		ss["repairs"] != 1 || ss["commits"] != 1 {
		t.Fatalf("sessions stats = %v", ss)
	}

	// Delete closes the loop; conservation must hold exactly.
	if code, body, _ := sessionRequest(t, h, "DELETE", "/v1/sessions/s-pin-1", "", ""); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, body)
	}
	_, body, _ = sessionRequest(t, h, "GET", "/v1/stats", "", "")
	ss = mustJSON[statsDoc](t, body)["sessions"]
	if ss["created"]-ss["evicted"]-ss["deleted"] != ss["active"] || ss["active"] != 0 {
		t.Fatalf("conservation violated after delete: %v", ss)
	}
	if code, body, _ := sessionRequest(t, h, "GET", "/v1/sessions/s-pin-1", "", ""); code != http.StatusNotFound {
		t.Fatalf("get after delete: %d %s", code, body)
	}
}

// TestSessionStale409 pins the staleness protocol: a transformation
// labeled before an append answers 409 on repair and commit until the
// client re-labels; repair before any label is also 409.
func TestSessionStale409(t *testing.T) {
	h := testMux(t)

	code, body, _ := sessionRequest(t, h, "POST", "/v1/sessions",
		`{"rows":["31/12/2019","28/02/2020","12-31-2019"]}`, "s-stale")
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}

	// Repair before label: 409.
	if code, body, _ := sessionRequest(t, h, "POST", "/v1/sessions/s-stale/repair",
		`{"source":0,"alt":1}`, ""); code != http.StatusConflict {
		t.Fatalf("repair before label: %d %s", code, body)
	}

	if code, body, _ := sessionRequest(t, h, "POST", "/v1/sessions/s-stale/label",
		`{"target":"<D>2'-'<D>2'-'<D>4"}`, ""); code != http.StatusOK {
		t.Fatalf("label: %d %s", code, body)
	}

	// An empty append is a no-op and must NOT invalidate the label.
	if code, body, _ := sessionRequest(t, h, "POST", "/v1/sessions/s-stale/append",
		`{"rows":[]}`, ""); code != http.StatusOK {
		t.Fatalf("empty append: %d %s", code, body)
	}
	if code, body, _ := sessionRequest(t, h, "GET", "/v1/sessions/s-stale/repair?source=0", "", ""); code != http.StatusOK {
		t.Fatalf("candidates after empty append: %d %s", code, body)
	}

	// A real append makes the transformation stale: 409 everywhere.
	if code, body, _ := sessionRequest(t, h, "POST", "/v1/sessions/s-stale/append",
		`{"rows":["01/07/2021"]}`, ""); code != http.StatusOK {
		t.Fatalf("append: %d %s", code, body)
	}
	for _, probe := range []struct{ method, path, body string }{
		{"GET", "/v1/sessions/s-stale/repair?source=0", ""},
		{"POST", "/v1/sessions/s-stale/repair", `{"source":0,"alt":1}`},
		{"POST", "/v1/sessions/s-stale/commit", `{}`},
	} {
		code, body, _ := sessionRequest(t, h, probe.method, probe.path, probe.body, "")
		if code != http.StatusConflict {
			t.Fatalf("%s %s after append: %d %s, want 409", probe.method, probe.path, code, body)
		}
		env := mustJSON[errorJSON](t, body)
		if !strings.Contains(env.Error, "stale") && !strings.Contains(env.Error, "label") {
			t.Fatalf("409 envelope not explanatory: %q", env.Error)
		}
	}

	// The session doc reports the stale flag, and re-labeling clears it.
	_, body, _ = sessionRequest(t, h, "GET", "/v1/sessions/s-stale", "", "")
	if info := mustJSON[sessionJSON](t, body); !info.Labeled || !info.Stale {
		t.Fatalf("session doc = %+v, want labeled+stale", info)
	}
	if code, body, _ := sessionRequest(t, h, "POST", "/v1/sessions/s-stale/label",
		`{"target":"<D>2'-'<D>2'-'<D>4"}`, ""); code != http.StatusOK {
		t.Fatalf("re-label: %d %s", code, body)
	}
	if code, body, _ := sessionRequest(t, h, "POST", "/v1/sessions/s-stale/repair",
		`{"source":0,"alt":1}`, ""); code != http.StatusOK {
		t.Fatalf("repair after re-label: %d %s", code, body)
	}
}

// TestSessionCapacity429 pins the admission envelope: creates past
// MaxSessions answer 429 with Retry-After, and deleting frees the slot.
func TestSessionCapacity429(t *testing.T) {
	h, _ := testMuxServer(t, Config{MaxSessions: 1})

	if code, body, _ := sessionRequest(t, h, "POST", "/v1/sessions",
		`{"rows":["a1"]}`, "s-cap-1"); code != http.StatusCreated {
		t.Fatalf("create 1: %d %s", code, body)
	}
	code, body, hdr := sessionRequest(t, h, "POST", "/v1/sessions", `{"rows":["a1"]}`, "s-cap-2")
	if code != http.StatusTooManyRequests {
		t.Fatalf("create past cap: %d %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if env := mustJSON[errorJSON](t, body); !strings.Contains(env.Error, "session limit") {
		t.Fatalf("429 envelope: %q", env.Error)
	}
	if code, body, _ := sessionRequest(t, h, "DELETE", "/v1/sessions/s-cap-1", "", ""); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, body)
	}
	if code, body, _ := sessionRequest(t, h, "POST", "/v1/sessions",
		`{"rows":["a1"]}`, "s-cap-3"); code != http.StatusCreated {
		t.Fatalf("create after delete: %d %s", code, body)
	}
}

// TestSessionTTLEvictionOverHTTP drives the injected clock past the TTL
// and watches the session disappear with the evicted counter moving.
func TestSessionTTLEvictionOverHTTP(t *testing.T) {
	var mu sync.Mutex
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	h, _ := testMuxServer(t, Config{
		SessionTTL: time.Hour,
		SessionNow: func() time.Time { mu.Lock(); defer mu.Unlock(); return now },
	})

	if code, body, _ := sessionRequest(t, h, "POST", "/v1/sessions",
		`{"rows":["a1","b2"]}`, "s-ttl"); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	if code, _, _ := sessionRequest(t, h, "GET", "/v1/sessions/s-ttl", "", ""); code != http.StatusOK {
		t.Fatalf("get before expiry: %d", code)
	}

	mu.Lock()
	now = now.Add(2 * time.Hour)
	mu.Unlock()

	// The next request's lazy sweep evicts it.
	if code, body, _ := sessionRequest(t, h, "GET", "/v1/sessions/s-ttl", "", ""); code != http.StatusNotFound {
		t.Fatalf("get after expiry: %d %s", code, body)
	}
	_, body, _ := sessionRequest(t, h, "GET", "/v1/stats", "", "")
	ss := mustJSON[statsDoc](t, body)["sessions"]
	if ss["evicted"] != 1 || ss["active"] != 0 || ss["created"] != 1 {
		t.Fatalf("stats after eviction = %v", ss)
	}
}

// TestSessionValidation covers the plain-4xx edges: empty rows, missing
// target, unknown session, bad repair body.
func TestSessionValidation(t *testing.T) {
	h := testMux(t)
	if code, _, _ := sessionRequest(t, h, "POST", "/v1/sessions", `{"rows":[]}`, ""); code != http.StatusBadRequest {
		t.Fatalf("empty rows: %d", code)
	}
	if code, _, _ := sessionRequest(t, h, "GET", "/v1/sessions/nope", "", ""); code != http.StatusNotFound {
		t.Fatalf("unknown session: %d", code)
	}
	code, body, _ := sessionRequest(t, h, "POST", "/v1/sessions", `{"rows":["a1"]}`, "s-val")
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	if code, _, _ := sessionRequest(t, h, "POST", "/v1/sessions/s-val/label", `{}`, ""); code != http.StatusBadRequest {
		t.Fatalf("missing target: %d", code)
	}
	if code, _, _ := sessionRequest(t, h, "POST", "/v1/sessions/s-val/label",
		`{"target":"{digit"}`, ""); code != http.StatusBadRequest {
		t.Fatalf("bad target: %d", code)
	}
	if code, _, _ := sessionRequest(t, h, "POST", "/v1/sessions/s-val/repair", `{}`, ""); code != http.StatusBadRequest {
		t.Fatalf("empty repair: %d", code)
	}
	// Duplicate pinned id conflicts.
	if code, _, _ := sessionRequest(t, h, "POST", "/v1/sessions", `{"rows":["a1"]}`, "s-val"); code != http.StatusConflict {
		t.Fatalf("duplicate id: %d", code)
	}
}

// referenceLabelResponse renders the label/repair response the way the
// handler first did: previews from a copy of the session column, every
// source scored by RepairCandidates only to count its plans, and the
// flagged rows taken from a full Run. Each op lists the alternatives of
// the first source with the op's pattern (none when no source has it).
func referenceLabelResponse(h *sessionstore.Handle, previewRows int) sessionLabelResponse {
	tr := h.Transformation()
	rows := h.Session().Data()
	resp := sessionLabelResponse{Generation: tr.Generation()}
	for _, op := range tr.Replaces() {
		j := opJSON{
			NL:          op.NLRegex(),
			Regex:       op.Regex(),
			Replacement: op.Replacement,
			Source:      op.Source.String(),
		}
		if previewRows > 0 {
			for _, p := range op.Preview(rows, previewRows) {
				j.Preview = append(j.Preview, previewJSON{Input: p.Input, Output: p.Output})
			}
		}
		owner := slices.IndexFunc(tr.Sources(), op.Source.Equal)
		for _, alt := range tr.Alternatives(owner) {
			j.Alternatives = append(j.Alternatives, alt.Replacement)
		}
		resp.Ops = append(resp.Ops, j)
	}
	for i, src := range tr.Sources() {
		resp.Sources = append(resp.Sources, sessionSourceJSON{
			Index:   i,
			Pattern: src.String(),
			Plans:   len(tr.RepairCandidates(i)),
		})
	}
	_, resp.Flagged = tr.Run()
	resp.Clean = tr.Clean()
	return resp
}

// The label and repair responses count plans instead of scoring them and
// find flagged rows without rendering the column; their bytes must equal
// the reference rendering's on a large phone column, after an append, a
// ranked pick and example feedback.
func TestSessionLabelResponseMatchesReference(t *testing.T) {
	st, err := progstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{})
	mux := srv.handler()

	rows, _ := dataset.Phones(2000, 7, 21)
	rows = append(rows, "N/A", "", "picture 001", "invoice 001", "picture 002", "invoice 002")
	more, _ := dataset.Phones(200, 7, 22)
	post := func(path string, v any) []byte {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		code, resp, _ := sessionRequest(t, mux, "POST", path, string(body), "s-ref")
		if code/100 != 2 {
			t.Fatalf("POST %s: %d %s", path, code, resp)
		}
		return resp
	}
	// check compares one response with the reference rendering of the
	// session's current state, and pins the two facts the handler no
	// longer computes the expensive way.
	check := func(name string, got []byte, previewRows int) {
		t.Helper()
		hd, release, err := srv.sessions.Acquire("s-ref")
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		w := httptest.NewRecorder()
		writeJSON(w, http.StatusOK, referenceLabelResponse(hd, previewRows))
		if !bytes.Equal(got, w.Body.Bytes()) {
			t.Fatalf("%s: response differs from the reference\n got %s\nwant %s", name, got, w.Body.Bytes())
		}
		tr := hd.Transformation()
		resp := mustJSON[sessionLabelResponse](t, got)
		for i, src := range resp.Sources {
			if want := len(tr.RepairCandidates(i)); src.Plans != want {
				t.Errorf("%s: sources[%d].plans = %d, want %d", name, i, src.Plans, want)
			}
		}
		if _, flagged := tr.Run(); !slices.Equal(resp.Flagged, flagged) {
			t.Errorf("%s: flagged = %v, want Run's %v", name, resp.Flagged, flagged)
		}
		if len(resp.Flagged) == 0 || len(resp.Sources) < 3 {
			t.Fatalf("%s: %d sources, %d flagged; the column should exercise both", name,
				len(resp.Sources), len(resp.Flagged))
		}
	}

	post("/v1/sessions", sessionCreateRequest{Rows: rows})
	check("label", post("/v1/sessions/s-ref/label",
		sessionLabelRequest{Target: "<D>3'-'<D>3'-'<D>4"}), 3)
	post("/v1/sessions/s-ref/append", sessionAppendRequest{Rows: more})
	zero := 0
	check("relabel", post("/v1/sessions/s-ref/label",
		sessionLabelRequest{Target: "<D>3'-'<D>3'-'<D>4", PreviewRows: &zero}), 0)
	src := 1
	check("pick", post("/v1/sessions/s-ref/repair",
		sessionRepairRequest{Source: &src, Alt: 1}), 3)
	check("examples", post("/v1/sessions/s-ref/repair", sessionRepairRequest{Examples: map[string]string{
		"picture 001": "100-001-0000", "picture 002": "100-002-0000",
		"invoice 001": "200-001-0000", "invoice 002": "200-002-0000",
	}}), 3)
}

// BenchmarkLabelResponse20k times POST label on the large interactive
// session — a 20k-row six-format phone column grown by a 1k-row append —
// against an in-process daemon: synthesis plus the full label response.
func BenchmarkLabelResponse20k(b *testing.B) {
	st, err := progstore.Open("")
	if err != nil {
		b.Fatal(err)
	}
	mux := New(st, Config{Workers: 1}).handler()
	rows, _ := dataset.Phones(20000, 6, 7919)
	more, _ := dataset.Phones(1000, 6, 7920)
	send := func(path string, v any) {
		body, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		req.Header.Set("X-Session-ID", "s-bench")
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code/100 != 2 {
			b.Fatalf("POST %s: %d %s", path, w.Code, w.Body.Bytes())
		}
	}
	send("/v1/sessions", sessionCreateRequest{Rows: rows})
	send("/v1/sessions/s-bench/append", sessionAppendRequest{Rows: more})
	label := sessionLabelRequest{Target: "<D>3'-'<D>3'-'<D>4"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send("/v1/sessions/s-bench/label", label)
	}
}

// checkResponseAlternatives is the op→source oracle over a label or
// repair response: the alternatives listed under each op are, in rank
// order, the replacements of the plans of a source with the op's pattern
// — read from that source's scored candidates (GET .../repair), which
// share no code with the label response — and none when no source has
// the op's pattern. It returns how many ops listed alternatives.
func checkResponseAlternatives(t *testing.T, mux http.Handler, id, name string, body []byte) int {
	t.Helper()
	resp := mustJSON[sessionLabelResponse](t, body)
	listed := 0
	for k, op := range resp.Ops {
		owned, matched := false, false
		for _, src := range resp.Sources {
			if src.Pattern != op.Source {
				continue
			}
			owned = true
			code, cb, _ := sessionRequest(t, mux, "GET",
				fmt.Sprintf("/v1/sessions/%s/repair?source=%d", id, src.Index), "", "")
			if code != http.StatusOK {
				t.Fatalf("%s: repair candidates of source %d: %d %s", name, src.Index, code, cb)
			}
			cands := mustJSON[repairCandidatesResponse](t, cb).Candidates
			want := make([]string, len(cands))
			for _, c := range cands {
				want[c.Alt] = c.Replacement
			}
			matched = matched || slices.Equal(op.Alternatives, want)
		}
		switch {
		case !owned && len(op.Alternatives) != 0:
			t.Fatalf("%s: op %d (%s) serves no source but lists %v", name, k, op.Source, op.Alternatives)
		case owned && !matched:
			t.Fatalf("%s: op %d (%s) lists %v, not the plans of a source with its pattern",
				name, k, op.Source, op.Alternatives)
		case owned:
			listed++
		}
	}
	return listed
}

// suiteExamples picks example feedback for a suite column: up to four
// rows of the first input format with at least two distinct rows that
// need changing, with their desired outputs.
func suiteExamples(inputs, outputs []string) map[string]string {
	byFormat := make(map[string]map[string]string)
	var order []string
	for i, in := range inputs {
		if in == outputs[i] {
			continue
		}
		k := cluster.Generalize(pattern.FromString(in), cluster.QuantToPlus).Key()
		if byFormat[k] == nil {
			byFormat[k] = make(map[string]string)
			order = append(order, k)
		}
		if len(byFormat[k]) < 4 {
			byFormat[k][in] = outputs[i]
		}
	}
	for _, k := range order {
		if len(byFormat[k]) >= 2 {
			return byFormat[k]
		}
	}
	return nil
}

// Every op of a label or repair response lists the alternatives of the
// source it serves: over the 47-task suite after labeling, a ranked pick
// and example feedback, and on a keyword column where example feedback
// splits the first of three sources into two guarded ops.
func TestSessionAlternativesServeTheirOpsSource(t *testing.T) {
	mux := testMux(t)
	post := func(id, path string, v any) ([]byte, bool) {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		code, resp, _ := sessionRequest(t, mux, "POST", path, string(body), id)
		return resp, code/100 == 2
	}
	listed, repaired := 0, 0
	for n, task := range benchsuite.Tasks() {
		id := fmt.Sprintf("s-alt-%02d", n)
		base := "/v1/sessions/" + id
		if _, ok := post(id, "/v1/sessions", sessionCreateRequest{Rows: task.Inputs}); !ok {
			t.Fatalf("%s: create failed", task.Name)
		}
		target := simuser.SelectTargets(task.Inputs, task.Outputs)[0].String()
		body, ok := post(id, base+"/label", sessionLabelRequest{Target: target})
		if !ok {
			t.Fatalf("%s: label failed: %s", task.Name, body)
		}
		listed += checkResponseAlternatives(t, mux, id, task.Name+"/label", body)
		resp := mustJSON[sessionLabelResponse](t, body)
		if len(resp.Sources) > 0 {
			src := len(resp.Sources) - 1
			body, ok = post(id, base+"/repair", sessionRepairRequest{Source: &src, Alt: resp.Sources[src].Plans - 1})
			if !ok {
				t.Fatalf("%s: pick failed: %s", task.Name, body)
			}
			listed += checkResponseAlternatives(t, mux, id, task.Name+"/pick", body)
		}
		if ex := suiteExamples(task.Inputs, task.Outputs); ex != nil {
			if body, ok = post(id, base+"/repair", sessionRepairRequest{Examples: ex}); ok {
				listed += checkResponseAlternatives(t, mux, id, task.Name+"/examples", body)
				repaired++
			}
		}
	}
	if listed < 100 || repaired < 20 {
		t.Errorf("%d ops listed alternatives over %d example repairs; want the whole suite", listed, repaired)
	}

	rows := []string{
		"picture 001", "invoice 001", "picture 002", "invoice 002",
		"pic/003", "doc/004", "pic.005", "doc.006",
	}
	post("s-pic", "/v1/sessions", sessionCreateRequest{Rows: rows})
	post("s-pic", "/v1/sessions/s-pic/label", sessionLabelRequest{Target: "<L>+'-'<D>+"})
	body, ok := post("s-pic", "/v1/sessions/s-pic/repair", sessionRepairRequest{Examples: map[string]string{
		"picture 001": "pic-001", "picture 002": "pic-002",
		"invoice 001": "doc-001", "invoice 002": "doc-002",
	}})
	if !ok {
		t.Fatalf("picture examples: %s", body)
	}
	resp := mustJSON[sessionLabelResponse](t, body)
	if len(resp.Sources) != 3 || len(resp.Ops) != 4 {
		t.Fatalf("picture column: %d ops over %d sources, want the first of three split in two",
			len(resp.Ops), len(resp.Sources))
	}
	if got := checkResponseAlternatives(t, mux, "s-pic", "picture", body); got != 4 {
		t.Fatalf("picture column: %d of 4 ops list alternatives", got)
	}
}

// BenchmarkRegister times one POST /v1/programs — profile, synthesize
// with labeling's ranking, export and register — of a 200-row
// seven-format phone column, re-registered over 16 ids against an
// in-memory registry, on one worker.
func BenchmarkRegister(b *testing.B) {
	st, err := progstore.Open("")
	if err != nil {
		b.Fatal(err)
	}
	mux := New(st, Config{Workers: 1}).handler()
	rows, _ := dataset.Phones(200, 7, 4242)
	bodies := make([][]byte, 16)
	for i := range bodies {
		if bodies[i], err = json.Marshal(registerRequest{
			Rows: rows, Target: "<D>3'-'<D>3'-'<D>4", ID: fmt.Sprintf("reg-%02d", i),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/programs", bytes.NewReader(bodies[i%16]))
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code/100 != 2 {
			b.Fatalf("register: %d %s", w.Code, w.Body.Bytes())
		}
	}
}
