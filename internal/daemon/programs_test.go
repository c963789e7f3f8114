// End-to-end tests of the program registry endpoints: register, restart
// recovery, hot apply with drift, and the uniform error envelope.
package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	clx "clx"
	"clx/internal/benchsuite"
	"clx/internal/progstore"
	"clx/internal/simuser"
	"clx/internal/synth"
)

// testMux builds the full daemon handler (middleware included) over an
// ephemeral registry, so every endpoint test also exercises tracing.
func testMux(t *testing.T) http.Handler {
	t.Helper()
	st, err := progstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	return New(st, Config{}).handler()
}

// openMux builds the daemon handler over a persistent registry in dir; the
// returned store lets tests simulate a daemon restart by closing it.
func openMux(t *testing.T, dir string) (http.Handler, *progstore.Store) {
	t.Helper()
	st, err := progstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return New(st, Config{}).handler(), st
}

func TestProgramRegistryLifecycle(t *testing.T) {
	mux := testMux(t)

	// Register.
	rec, raw := request(t, mux, "POST", "/v1/programs",
		`{"rows":["(734) 645-8397","734.236.3466"],"target":"<D>3'-'<D>3'-'<D>4","name":"phones"}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("register status %d: %s", rec.Code, raw)
	}
	var entry programEntryJSON
	if err := json.Unmarshal(raw, &entry); err != nil {
		t.Fatal(err)
	}
	if entry.ID == "" || entry.Version != 1 || entry.Name != "phones" ||
		entry.Target != "<D>3'-'<D>3'-'<D>4" || len(entry.Sources) != 2 ||
		entry.RowCount != 2 || len(entry.Program) == 0 {
		t.Fatalf("entry = %+v", entry)
	}

	// List carries metadata but not the program body.
	_, raw = request(t, mux, "GET", "/v1/programs", "")
	var list programListResponse
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Programs) != 1 || list.Programs[0].ID != entry.ID || len(list.Programs[0].Program) != 0 {
		t.Fatalf("list = %+v", list)
	}

	// Get returns the auditable program.
	rec, raw = request(t, mux, "GET", "/v1/programs/"+entry.ID, "")
	var got programEntryJSON
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || len(got.Program) == 0 {
		t.Fatalf("get status %d, entry %+v", rec.Code, got)
	}

	// Re-register under the same id bumps the version.
	rec, raw = request(t, mux, "POST", "/v1/programs",
		fmt.Sprintf(`{"rows":["(734) 645-8397"],"target":"<D>3'-'<D>3'-'<D>4","id":%q}`, entry.ID))
	if rec.Code != http.StatusCreated {
		t.Fatalf("re-register status %d: %s", rec.Code, raw)
	}
	var v2 programEntryJSON
	if err := json.Unmarshal(raw, &v2); err != nil {
		t.Fatal(err)
	}
	if v2.ID != entry.ID || v2.Version != 2 || v2.Name != "phones" {
		t.Fatalf("v2 = %+v", v2)
	}

	// Delete, then every id route 404s.
	rec, _ = request(t, mux, "DELETE", "/v1/programs/"+entry.ID, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete status %d", rec.Code)
	}
	for _, probe := range [][2]string{
		{"GET", "/v1/programs/" + entry.ID},
		{"DELETE", "/v1/programs/" + entry.ID},
		{"POST", "/v1/programs/" + entry.ID + "/apply"},
	} {
		body := ""
		if probe[0] == "POST" {
			body = `{"rows":["x"]}`
		}
		rec, raw := request(t, mux, probe[0], probe[1], body)
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", probe[0], probe[1], rec.Code)
		}
		var e errorJSON
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("%s %s: missing error envelope: %s", probe[0], probe[1], raw)
		}
	}
}

// The acceptance path: a program registered over a benchmark task,
// recovered after a simulated daemon restart, applies by id with output
// byte-identical to a fresh clx Transform over the same rows — and the
// apply performs no Algorithm-2 synthesis.
func TestProgramApplyMatchesFreshTransformAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	mux, st := openMux(t, dir)

	type regged struct {
		id   string
		task benchsuite.Task
		want []string // fresh clx Transform output
	}
	var cases []regged
	for _, task := range benchsuite.Tasks() {
		if len(cases) == 6 {
			break
		}
		targets := simuser.SelectTargets(nil, task.Outputs)
		if len(targets) != 1 {
			continue // single-target tasks keep the fixture simple
		}
		target := targets[0]

		// Fresh in-process Transform: the ground truth for byte identity.
		sess := clx.NewSession(task.Inputs)
		tr, err := sess.Label(target)
		if err != nil {
			t.Fatalf("%s: %v", task.Name, err)
		}
		want, _ := tr.Run()

		body, _ := json.Marshal(registerRequest{
			Rows: task.Inputs, Target: target.String(), Name: task.Name,
		})
		rec, raw := request(t, mux, "POST", "/v1/programs", string(body))
		if rec.Code != http.StatusCreated {
			t.Fatalf("%s: register status %d: %s", task.Name, rec.Code, raw)
		}
		var entry programEntryJSON
		if err := json.Unmarshal(raw, &entry); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, regged{id: entry.ID, task: task, want: want})
	}
	if len(cases) < 5 {
		t.Fatalf("only %d single-target benchmark tasks; need >= 5", len(cases))
	}

	// Simulated daemon restart: close the store, reopen from disk.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	mux2, st2 := openMux(t, dir)
	defer st2.Close()

	synthBefore := synth.SynthesizeCalls()
	for _, c := range cases {
		body, _ := json.Marshal(programApplyRequest{Rows: c.task.Inputs})
		rec, raw := request(t, mux2, "POST", "/v1/programs/"+c.id+"/apply", string(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: apply status %d: %s", c.task.Name, rec.Code, raw)
		}
		var res progstore.ApplyResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Output, c.want) {
			t.Errorf("%s: recovered apply differs from fresh Transform", c.task.Name)
		}
		if res.Drift.Checked != len(c.task.Inputs) {
			t.Errorf("%s: drift.checked = %d, want %d", c.task.Name, res.Drift.Checked, len(c.task.Inputs))
		}
	}
	if calls := synth.SynthesizeCalls() - synthBefore; calls != 0 {
		t.Errorf("apply path ran Algorithm 2 %d times; the hot path must never synthesize", calls)
	}
}

func TestProgramApplyDriftReport(t *testing.T) {
	mux := testMux(t)
	_, raw := request(t, mux, "POST", "/v1/programs",
		`{"rows":["(734) 645-8397","734.236.3466"],"target":"<D>3'-'<D>3'-'<D>4"}`)
	var entry programEntryJSON
	if err := json.Unmarshal(raw, &entry); err != nil {
		t.Fatal(err)
	}
	rec, raw := request(t, mux, "POST", "/v1/programs/"+entry.ID+"/apply",
		`{"rows":["(917) 555-0100","+1 917 555 0177","+1 212 555 0123","917-555-0199"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("apply status %d: %s", rec.Code, raw)
	}
	var res progstore.ApplyResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != "917-555-0100" || res.Output[3] != "917-555-0199" {
		t.Fatalf("output = %v", res.Output)
	}
	if res.Drift.Checked != 4 || res.Drift.Drifted != 2 || len(res.Drift.Clusters) != 1 {
		t.Fatalf("drift = %+v", res.Drift)
	}
	c := res.Drift.Clusters[0]
	if c.Count != 2 || len(c.Samples) != 2 || !c.Resynthesizable {
		t.Fatalf("drift cluster = %+v", c)
	}
	if !strings.Contains(c.NL, "{digit}") {
		t.Errorf("cluster NL = %q", c.NL)
	}
}

// The error envelope is uniform: 400 for malformed bodies and bad
// synthesis inputs, 404 for unknown ids, 413 past the body cap — all as
// {"error": "..."} JSON.
func TestProgramErrorEnvelope(t *testing.T) {
	mux := testMux(t)
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/programs", `{`, http.StatusBadRequest},
		{"POST", "/v1/programs", `{"rows":["a"],"bogus":1}`, http.StatusBadRequest},
		{"POST", "/v1/programs", `{"rows":["a"]}`, http.StatusBadRequest},                   // missing target
		{"POST", "/v1/programs", `{"rows":["a"],"target":"{nope}"}`, http.StatusBadRequest}, // bad pattern
		{"POST", "/v1/programs", `{"rows":["a"],"target":"<D>3","repairs":[{"source":9,"alt":0}]}`, http.StatusBadRequest},
		{"GET", "/v1/programs/nope", "", http.StatusNotFound},
		{"DELETE", "/v1/programs/nope", "", http.StatusNotFound},
		{"POST", "/v1/programs/nope/apply", `{"rows":["x"]}`, http.StatusNotFound},
		{"POST", "/v1/programs/nope/apply", `{`, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec, raw := request(t, mux, c.method, c.path, c.body)
		if rec.Code != c.want {
			t.Errorf("%s %s %q: status %d, want %d", c.method, c.path, c.body, rec.Code, c.want)
		}
		var e errorJSON
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("%s %s: body %q is not the error envelope", c.method, c.path, raw)
		}
	}
}

// Oversized bodies get 413 with the envelope, on every POST route.
func TestRequestBodyCap(t *testing.T) {
	old := maxBody
	maxBody = 256
	defer func() { maxBody = old }()
	mux := testMux(t)
	big := `{"rows":["` + strings.Repeat("x", 512) + `"]}`
	for _, path := range []string{"/v1/cluster", "/v1/transform", "/v1/apply", "/v1/programs", "/v1/programs/nope/apply"} {
		rec, raw := request(t, mux, "POST", path, big)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s: status %d, want 413", path, rec.Code)
		}
		var e errorJSON
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("POST %s: body %q is not the error envelope", path, raw)
		}
	}
}
