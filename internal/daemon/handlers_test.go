package daemon

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"clx/internal/progstore"
)

func request(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestHealthz(t *testing.T) {
	rec, body := request(t, testMux(t), "GET", "/healthz", "")
	if rec.Code != http.StatusOK || !strings.Contains(string(body), `"ok":true`) {
		t.Fatalf("healthz: %d %s", rec.Code, body)
	}
}

func TestClusterEndpoint(t *testing.T) {
	rec, body := request(t, testMux(t), "POST", "/v1/cluster",
		`{"rows":["(734) 645-8397","734.236.3466","(313) 263-1192"],"levels":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp clusterResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(resp.Clusters))
	}
	if resp.Clusters[0].Pattern != "'('<D>3')'' '<D>3'-'<D>4" {
		t.Errorf("pattern = %q", resp.Clusters[0].Pattern)
	}
	if resp.Clusters[0].Count != 2 || resp.Clusters[0].Sample != "(734) 645-8397" {
		t.Errorf("cluster 0 = %+v", resp.Clusters[0])
	}
	if !strings.HasPrefix(resp.Clusters[0].NL, "/^") {
		t.Errorf("NL = %q", resp.Clusters[0].NL)
	}
	if len(resp.Levels) != 4 {
		t.Errorf("levels = %d, want 4", len(resp.Levels))
	}
}

func TestTransformEndpoint(t *testing.T) {
	rec, body := request(t, testMux(t), "POST", "/v1/transform",
		`{"rows":["(734) 645-8397","734.236.3466","N/A"],"target":"{digit}{3}-{digit}{3}-{digit}{4}"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp transformResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Output) != 3 || resp.Output[0] != "734-645-8397" || resp.Output[1] != "734-236-3466" {
		t.Errorf("output = %v", resp.Output)
	}
	if len(resp.Flagged) != 1 || resp.Flagged[0] != 2 {
		t.Errorf("flagged = %v", resp.Flagged)
	}
	if len(resp.Ops) != 2 {
		t.Fatalf("ops = %d, want 2", len(resp.Ops))
	}
	op := resp.Ops[0]
	if op.Replacement == "" || !strings.HasPrefix(op.NL, "/^") || op.Regex == "" {
		t.Errorf("op = %+v", op)
	}
	if len(op.Preview) == 0 || op.Preview[0].Output != "734-645-8397" {
		t.Errorf("preview = %+v", op.Preview)
	}
	if len(op.Alternatives) == 0 || op.Alternatives[0] != op.Replacement {
		t.Errorf("alternatives = %v", op.Alternatives)
	}
}

func TestTransformWithRepair(t *testing.T) {
	body0 := `{"rows":["31/12/2019","28/02/2020","12-31-2019"],"target":"<D>2'-'<D>2'-'<D>4"}`
	_, raw0 := request(t, testMux(t), "POST", "/v1/transform", body0)
	var resp0 transformResponse
	if err := json.Unmarshal(raw0, &resp0); err != nil {
		t.Fatal(err)
	}
	body1 := `{"rows":["31/12/2019","28/02/2020","12-31-2019"],"target":"<D>2'-'<D>2'-'<D>4","repairs":[{"source":0,"alt":1}]}`
	_, raw1 := request(t, testMux(t), "POST", "/v1/transform", body1)
	var resp1 transformResponse
	if err := json.Unmarshal(raw1, &resp1); err != nil {
		t.Fatal(err)
	}
	if resp0.Output[0] == resp1.Output[0] {
		t.Error("repair had no effect")
	}
	if resp1.Output[0] != "12-31-2019" {
		t.Errorf("repaired output = %q", resp1.Output[0])
	}
}

func TestTransformErrors(t *testing.T) {
	cases := []string{
		`{`,
		`{"rows":["a"],"bogus":1}`,
		`{"rows":["a"]}`,                   // missing target
		`{"rows":["a"],"target":"{nope}"}`, // bad pattern
		`{"rows":["a"],"target":"<D>","repairs":[{"source":9,"alt":0}]}`, // bad repair
	}
	for _, body := range cases {
		rec, _ := request(t, testMux(t), "POST", "/v1/transform", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, rec.Code)
		}
	}
}

func TestPreviewRowsZeroDisables(t *testing.T) {
	_, raw := request(t, testMux(t), "POST", "/v1/transform",
		`{"rows":["(734) 645-8397"],"target":"<D>3'-'<D>3'-'<D>4","preview_rows":0}`)
	var resp transformResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Ops) > 0 && len(resp.Ops[0].Preview) != 0 {
		t.Error("preview_rows=0 should disable previews")
	}
}

func TestMethodRouting(t *testing.T) {
	rec, _ := request(t, testMux(t), "GET", "/v1/transform", "")
	if rec.Code == http.StatusOK {
		t.Error("GET /v1/transform should not be routed")
	}
}

func TestUnifyEndpoint(t *testing.T) {
	body := `{"tables":[
		{"name":"std","headers":["Name","Phone"],"rows":[["Kate Fisher","313-263-1192"]]},
		{"name":"legacy","headers":["phone","name"],"rows":[["(734) 645-0001","Rosa Cole"]]}
	],"target":0}`
	rec, raw := request(t, testMux(t), "POST", "/v1/tables/unify", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, raw)
	}
	var resp unifyResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Tables) != 2 {
		t.Fatalf("tables = %d", len(resp.Tables))
	}
	got := resp.Tables[1].Rows[0]
	if got[0] != "Rosa Cole" || got[1] != "734-645-0001" {
		t.Errorf("unified row = %v", got)
	}
	if len(resp.Mappings[1]) != 2 {
		t.Errorf("mappings = %v", resp.Mappings)
	}
	found := false
	for _, m := range resp.Mappings[1] {
		if strings.Contains(m, "(transformed)") {
			found = true
		}
	}
	if !found {
		t.Errorf("phone mapping should be marked transformed: %v", resp.Mappings[1])
	}
}

func TestUnifyEndpointErrors(t *testing.T) {
	cases := []string{
		`{"tables":[{"headers":["a"],"rows":[["x","y"]]}],"target":0}`, // ragged
		`{"tables":[{"headers":["a"],"rows":[["x"]]}],"target":5}`,     // bad target
	}
	for _, body := range cases {
		rec, _ := request(t, testMux(t), "POST", "/v1/tables/unify", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, rec.Code)
		}
	}
}

func TestApplyEndpoint(t *testing.T) {
	// Synthesize + export via /v1/transform, then run the program on new
	// rows via /v1/apply.
	_, raw := request(t, testMux(t), "POST", "/v1/transform",
		`{"rows":["(734) 645-8397","734.236.3466"],"target":"<D>3'-'<D>3'-'<D>4"}`)
	var tresp transformResponse
	if err := json.Unmarshal(raw, &tresp); err != nil {
		t.Fatal(err)
	}
	if len(tresp.Program) == 0 {
		t.Fatal("transform response missing program")
	}
	body, _ := json.Marshal(applyRequest{
		Rows:    []string{"(917) 555-0100", "N/A"},
		Program: tresp.Program,
	})
	rec, raw2 := request(t, testMux(t), "POST", "/v1/apply", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, raw2)
	}
	var aresp applyResponse
	if err := json.Unmarshal(raw2, &aresp); err != nil {
		t.Fatal(err)
	}
	if aresp.Output[0] != "917-555-0100" || aresp.Output[1] != "N/A" {
		t.Errorf("output = %v", aresp.Output)
	}
	if len(aresp.Flagged) != 1 || aresp.Flagged[0] != 1 {
		t.Errorf("flagged = %v", aresp.Flagged)
	}
	// Bad program errors.
	rec, _ = request(t, testMux(t), "POST", "/v1/apply", `{"rows":["x"],"program":{"bad":1}}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad program status = %d", rec.Code)
	}
}

// TestStatsProfileIndexCounters: a cluster request advances the process
// profile-index counters surfaced under /v1/stats.
func TestStatsProfileIndexCounters(t *testing.T) {
	mux := testMux(t)
	rec, raw := request(t, mux, "GET", "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var before statsResponse
	if err := json.Unmarshal(raw, &before); err != nil {
		t.Fatal(err)
	}

	rec, body := request(t, mux, "POST", "/v1/cluster",
		`{"rows":["(734) 645-8397","734.236.3466","(313) 263-1192"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("cluster status %d: %s", rec.Code, body)
	}

	_, raw = request(t, mux, "GET", "/v1/stats", "")
	var after statsResponse
	if err := json.Unmarshal(raw, &after); err != nil {
		t.Fatal(err)
	}
	if d := after.ProfileIndex.Profiles - before.ProfileIndex.Profiles; d < 1 {
		t.Errorf("profiles advanced by %d, want >= 1", d)
	}
	if d := after.ProfileIndex.RowsProfiled - before.ProfileIndex.RowsProfiled; d < 3 {
		t.Errorf("rows_profiled advanced by %d, want >= 3", d)
	}
}

// jsonKeyPaths appends the dotted path of every leaf under v. An empty
// object counts as a leaf, so a section that loses all its fields still
// shows.
func jsonKeyPaths(prefix string, v any, out []string) []string {
	m, ok := v.(map[string]any)
	if !ok || len(m) == 0 {
		return append(out, prefix)
	}
	for k, child := range m {
		if prefix != "" {
			k = prefix + "." + k
		}
		out = jsonKeyPaths(k, child, out)
	}
	return out
}

// TestStatsKeyPaths pins the shape of /v1/stats on a fresh single-node
// server: the sorted set of JSON key paths. A field added, renamed or
// dropped shows up here, so moving the document onto another source
// (such as the obs registry) has to keep every path or say which changed.
func TestStatsKeyPaths(t *testing.T) {
	st, err := progstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	rec, raw := request(t, New(st, Config{}).Handler(), "GET", "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	got := jsonKeyPaths("", doc, nil)
	sort.Strings(got)
	want := []string{
		"admission.admitted",
		"admission.in_flight",
		"admission.rejected",
		"admission.retry_after_seconds",
		"automaton.compiled",
		"automaton.fallback",
		"matcher_cache.evictions",
		"matcher_cache.hits",
		"matcher_cache.misses",
		"profile_index.appended_rows",
		"profile_index.distinct_values",
		"profile_index.incremental_profiles",
		"profile_index.profiles",
		"profile_index.rows_profiled",
		"replication.last_idx",
		"replication.records_applied",
		"replication.snapshots_installed",
		"sessions.active",
		"sessions.commits",
		"sessions.created",
		"sessions.deleted",
		"sessions.evicted",
		"sessions.rejected",
		"sessions.repairs",
		"streaming.chunks",
		"streaming.errors",
		"streaming.flagged",
		"streaming.peak_in_flight",
		"streaming.rows",
		"streaming.streams",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/v1/stats key paths:\n got %q\nwant %q", got, want)
	}
}
