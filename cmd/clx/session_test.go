package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	clx "clx"
	"clx/internal/daemon"
	"clx/internal/progstore"
)

// sessionDaemon spins up an in-memory clxd for the CLI to talk to.
func sessionDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	st, err := progstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	srv := daemon.New(st, daemon.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func writeColumn(t *testing.T, dir, name string, rows ...string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSessionCommand drives the full loop — create, clusters, append,
// label, ranked candidates, repair pick, commit — against a live daemon
// and checks the committed program is served by the registry.
func TestSessionCommand(t *testing.T) {
	ts := sessionDaemon(t)
	dir := t.TempDir()
	seed := []string{"31/12/2019", "28/02/2020", "12-31-2019"}
	appended := []string{"01/07/2021"}
	dataFile := writeColumn(t, dir, "dates.txt", seed...)
	appendFile := writeColumn(t, dir, "more.txt", appended...)
	const target = "<D>2'-'<D>2'-'<D>4"

	// Find a real non-selected candidate through the library over the same
	// final column, so the CLI's -repair spec names a valid (source, alt).
	lib := clx.NewSession(append(append([]string{}, seed...), appended...))
	tr, err := lib.Label(clx.MustParsePattern(target))
	if err != nil {
		t.Fatal(err)
	}
	cands := tr.RepairCandidates(0)
	if len(cands) < 2 {
		t.Fatalf("want >= 2 candidates for source 0, got %d", len(cands))
	}
	pick := cands[0]
	if pick.Selected {
		pick = cands[1]
	}

	out, _, err := runCLI(t, "",
		"session", "-addr", ts.URL, "-file", dataFile, "-append", appendFile,
		"-target", target, "-candidates", "0",
		"-repair", fmt.Sprintf("%d=%d", pick.Source, pick.Alt),
		"-commit", "-name", "cli-dates")
	if err != nil {
		t.Fatalf("session: %v\n%s", err, out)
	}
	for _, want := range []string{
		"session s-",
		"clusters:",
		"appended 1 rows (4 total, generation 1)",
		fmt.Sprintf("labeled %q", target),
		"repair candidates for source 0",
		fmt.Sprintf("repaired source %d -> alt %d", pick.Source, pick.Alt),
		"committed program ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("session output missing %q:\n%s", want, out)
		}
	}

	// The committed id must serve from the registry.
	m := regexp.MustCompile(`committed program (\S+) v(\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no committed program id in output:\n%s", out)
	}
	var entry struct {
		ID   string `json:"id"`
		Name string `json:"name"`
	}
	if err := sessionHTTP("GET", ts.URL+"/v1/programs/"+m[1], nil, &entry); err != nil {
		t.Fatalf("registry lookup: %v", err)
	}
	if entry.Name != "cli-dates" {
		t.Errorf("registered name = %q, want cli-dates", entry.Name)
	}

	// Without -keep the CLI deletes its session on the way out.
	var list struct {
		Sessions []struct {
			ID string `json:"id"`
		} `json:"sessions"`
	}
	if err := sessionHTTP("GET", ts.URL+"/v1/sessions", nil, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 0 {
		t.Errorf("sessions left behind: %+v", list.Sessions)
	}
}

// TestSessionKeep leaves the session alive for later requests.
func TestSessionKeep(t *testing.T) {
	ts := sessionDaemon(t)
	dataFile := writeColumn(t, t.TempDir(), "rows.txt", "alpha", "beta")

	out, _, err := runCLI(t, "", "session", "-addr", ts.URL, "-file", dataFile, "-keep")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "kept session s-") {
		t.Errorf("output missing keep notice:\n%s", out)
	}
	var list struct {
		Sessions []struct {
			ID string `json:"id"`
		} `json:"sessions"`
	}
	if err := sessionHTTP("GET", ts.URL+"/v1/sessions", nil, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 {
		t.Fatalf("sessions = %+v, want exactly the kept one", list.Sessions)
	}
}

func TestSessionFlagValidation(t *testing.T) {
	dataFile := writeColumn(t, t.TempDir(), "rows.txt", "alpha")

	if _, _, err := runCLI(t, "", "session", "-file", dataFile); err == nil ||
		!strings.Contains(err.Error(), "-addr") {
		t.Errorf("missing -addr: err = %v", err)
	}

	ts := sessionDaemon(t)
	if _, _, err := runCLI(t, "", "session", "-addr", ts.URL, "-file", dataFile, "-commit"); err == nil ||
		!strings.Contains(err.Error(), "require -target") {
		t.Errorf("commit without target: err = %v", err)
	}
	// The guard runs after create, so the doomed session must not leak.
	var list struct {
		Sessions []struct {
			ID string `json:"id"`
		} `json:"sessions"`
	}
	if err := sessionHTTP("GET", ts.URL+"/v1/sessions", nil, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 0 {
		t.Errorf("sessions leaked after failed run: %+v", list.Sessions)
	}
}
