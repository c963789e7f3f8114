package progstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	clx "clx"
	"clx/internal/synth"
)

// phoneRows is a small heterogeneous column every test program is
// synthesized from.
var phoneRows = []string{
	"(734) 645-8397", "(734)586-7252", "734.236.3466", "734-422-8073",
}

const phoneTarget = "<D>3'-'<D>3'-'<D>4"

// makeProgram synthesizes and exports a verified program for rows→target.
func makeProgram(t *testing.T, rows []string, target string) json.RawMessage {
	t.Helper()
	sess := clx.NewSession(rows)
	tr, err := sess.Label(clx.MustParsePattern(target))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestRegisterGetListDelete(t *testing.T) {
	s, err := Open("") // ephemeral
	if err != nil {
		t.Fatal(err)
	}
	prog := makeProgram(t, phoneRows, phoneTarget)

	e1, err := s.Register(prog, Meta{Name: "phones", RowCount: len(phoneRows)})
	if err != nil {
		t.Fatal(err)
	}
	if e1.ID == "" || e1.Version != 1 || e1.Target != phoneTarget {
		t.Fatalf("entry = %+v", e1)
	}
	if len(e1.Sources) == 0 {
		t.Fatal("entry has no recorded source patterns")
	}
	e2, err := s.Register(prog, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if e2.ID == e1.ID {
		t.Fatal("fresh registration reused an id")
	}
	if got, ok := s.Get(e1.ID); !ok || got.Name != "phones" {
		t.Fatalf("Get(%s) = %+v, %v", e1.ID, got, ok)
	}
	if l := s.List(); len(l) != 2 || l[0].ID != e1.ID || l[1].ID != e2.ID {
		t.Fatalf("List order = %v", l)
	}

	// Re-registering an existing id bumps the version monotonically and
	// keeps the name.
	e1v2, err := s.Register(prog, Meta{ID: e1.ID})
	if err != nil {
		t.Fatal(err)
	}
	if e1v2.Version != 2 || e1v2.Name != "phones" {
		t.Fatalf("version bump = %+v", e1v2)
	}

	if ok, err := s.Delete(e2.ID); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if ok, err := s.Delete(e2.ID); err != nil || ok {
		t.Fatalf("second Delete = %v, %v", ok, err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestApplyHotPathAndDrift(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e, err := s.Register(makeProgram(t, phoneRows, phoneTarget), Meta{})
	if err != nil {
		t.Fatal(err)
	}

	live := []string{
		"(917) 555-0100",  // covered source format
		"212.555.0188",    // covered source format
		"646-555-0143",    // already clean
		"+1 917 555 0199", // novel format: drift
		"unknown",         // novel format: drift
	}
	before := synth.SynthesizeCalls()
	res, err := s.Apply(e.ID, live, 1)
	if err != nil {
		t.Fatal(err)
	}
	if synth.SynthesizeCalls() != before {
		t.Fatal("Apply ran Algorithm 2; the apply path must not synthesize")
	}
	want := []string{"917-555-0100", "212-555-0188", "646-555-0143", "+1 917 555 0199", "unknown"}
	if !reflect.DeepEqual(res.Output, want) {
		t.Fatalf("output = %v, want %v", res.Output, want)
	}
	if !reflect.DeepEqual(res.Flagged, []int{3, 4}) {
		t.Fatalf("flagged = %v", res.Flagged)
	}
	if res.Drift.Checked != 5 || res.Drift.Drifted != 2 {
		t.Fatalf("drift = %+v", res.Drift)
	}
	if len(res.Drift.Clusters) != 2 {
		t.Fatalf("drift clusters = %+v", res.Drift.Clusters)
	}
	for _, c := range res.Drift.Clusters {
		if c.Count != 1 || len(c.Samples) != 1 || c.Pattern == "" || c.NL == "" {
			t.Errorf("cluster = %+v", c)
		}
	}
	// The digit-bearing novel format passes Eq-2 validation (re-synthesis
	// could cover it); the all-letter one cannot produce three digit runs.
	bysample := map[string]bool{}
	for _, c := range res.Drift.Clusters {
		bysample[c.Samples[0]] = c.Resynthesizable
	}
	if !bysample["+1 917 555 0199"] {
		t.Error("digit-bearing drift format should validate as resynthesizable")
	}
	if bysample["unknown"] {
		t.Error("letters-only drift format cannot pass Eq-2 validation")
	}

	if _, err := s.Apply("p999999", live, 1); err != ErrNotFound {
		t.Fatalf("Apply unknown id err = %v", err)
	}
}

// A guarded program flags rows of a recorded format whose keyword is in no
// guarded group. Those rows keep a recorded format, so they are flagged but
// not drifted; only the row matching no recorded pattern is.
func TestDriftSkipsGuardedRecordedFormats(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr, err := clx.NewSession([]string{
		"picture 001", "invoice 001", "picture 002", "invoice 002",
	}).Label(clx.MustParsePattern("<U>+'-'<D>+"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.RepairWithExamples(map[string]string{
		"picture 001": "PIC-001", "picture 002": "PIC-002",
		"invoice 001": "DOC-001", "invoice 002": "DOC-002",
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.Register(raw, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Apply(e.ID, []string{"picture 007", "receipt 003", "zzz/9"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"PIC-007", "receipt 003", "zzz/9"}; !reflect.DeepEqual(res.Output, want) {
		t.Fatalf("output = %v, want %v", res.Output, want)
	}
	if !reflect.DeepEqual(res.Flagged, []int{1, 2}) {
		t.Fatalf("flagged = %v, want [1 2]", res.Flagged)
	}
	if res.Drift.Checked != 3 || res.Drift.Drifted != 1 {
		t.Fatalf("drift = %+v, want 1 of 3 drifted", res.Drift)
	}
	if len(res.Drift.Clusters) != 1 || !reflect.DeepEqual(res.Drift.Clusters[0].Samples, []string{"zzz/9"}) {
		t.Fatalf("drift clusters = %+v, want only zzz/9", res.Drift.Clusters)
	}
}

// Registered programs survive a daemon restart: state is rebuilt from
// snapshot + WAL, entries compare equal field by field, and the recovered
// program applies identically.
func TestRecoverAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.compactEvery = 4 // force snapshot compactions mid-run
	prog := makeProgram(t, phoneRows, phoneTarget)
	var want []Entry
	for i := 0; i < 10; i++ {
		e, err := s.Register(prog, Meta{Name: fmt.Sprintf("prog-%d", i), RowCount: i})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, e)
	}
	if ok, err := s.Delete(want[3].ID); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	want = append(want[:3], want[4:]...)
	// Crash-style handoff: no Close, no Flush.

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.List()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered entries differ:\n got %+v\nwant %+v", got, want)
	}
	// Fresh ids never collide with recovered ones.
	e, err := s2.Register(prog, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		if w.ID == e.ID {
			t.Fatalf("id %s reused after recovery", e.ID)
		}
	}
	res, err := s2.Apply(want[0].ID, []string{"(917) 555-0100"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != "917-555-0100" {
		t.Fatalf("recovered apply output = %v", res.Output)
	}
}

// A crash mid-append leaves a torn final WAL record; recovery keeps every
// acknowledged program and truncates the log back to a clean tail.
func TestCrashRecoveryTruncatedTail(t *testing.T) {
	for name, tear := range map[string]func(t *testing.T, wal string){
		"garbage-no-newline": func(t *testing.T, wal string) {
			f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteString(`{"op":"put","seq":99,"entry":{"id":"torn`); err != nil {
				t.Fatal(err)
			}
		},
		"cut-mid-record": func(t *testing.T, wal string) {
			st, err := os.Stat(wal)
			if err != nil {
				t.Fatal(err)
			}
			// Cut into the final record (records are hundreds of bytes).
			if err := os.Truncate(wal, st.Size()-40); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			prog := makeProgram(t, phoneRows, phoneTarget)
			const n = 5
			var ids []string
			for i := 0; i < n; i++ {
				e, err := s.Register(prog, Meta{})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, e.ID)
			}
			wal := filepath.Join(dir, "wal.jsonl")
			tear(t, wal)
			if name == "cut-mid-record" {
				// The cut destroys the last acknowledged record.
				ids = ids[:n-1]
			}

			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if s2.Len() != len(ids) {
				t.Fatalf("recovered %d programs, want %d", s2.Len(), len(ids))
			}
			for _, id := range ids {
				if _, ok := s2.Get(id); !ok {
					t.Fatalf("program %s lost", id)
				}
			}
			// The tail is clean: appends after recovery replay fine.
			e, err := s2.Register(prog, Meta{Name: "after-crash"})
			if err != nil {
				t.Fatal(err)
			}
			s3, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if got, ok := s3.Get(e.ID); !ok || got.Name != "after-crash" {
				t.Fatalf("post-crash append not recovered: %+v %v", got, ok)
			}
			if s3.Len() != len(ids)+1 {
				t.Fatalf("final Len = %d, want %d", s3.Len(), len(ids)+1)
			}
		})
	}
}

// A malformed record with intact records after it is corruption, not a
// torn tail: recovery must fail loudly instead of dropping acknowledged
// writes.
func TestCorruptWALMidFileFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prog := makeProgram(t, phoneRows, phoneTarget)
	for i := 0; i < 3; i++ {
		if _, err := s.Register(prog, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	wal := filepath.Join(dir, "wal.jsonl")
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Flip bytes inside the first record.
	copy(raw[10:14], "\x00\x00\x00\x00")
	if err := os.WriteFile(wal, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt mid-file WAL recovered silently")
	}
}

// Close folds everything into the snapshot; a reopened store starts from
// an empty WAL.
func TestCloseCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prog := makeProgram(t, phoneRows, phoneTarget)
	e, err := s.Register(prog, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("WAL not empty after Close: %d bytes", st.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("snapshot missing after Close: %v", err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(e.ID); !ok {
		t.Fatal("entry lost across Close/Open")
	}
}

// Concurrent register / apply / delete / list traffic; run under -race.
func TestConcurrentStress(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.compactEvery = 8 // compact under load too
	prog := makeProgram(t, phoneRows, phoneTarget)
	seed, err := s.Register(prog, Meta{Name: "seed"})
	if err != nil {
		t.Fatal(err)
	}
	live := []string{"(917) 555-0100", "212.555.0188", "drift row"}

	const (
		workers = 8
		iters   = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 4 {
				case 0:
					e, err := s.Register(prog, Meta{Name: fmt.Sprintf("w%d-%d", w, i)})
					if err != nil {
						errs <- err
						continue
					}
					if i%2 == 0 {
						if _, err := s.Delete(e.ID); err != nil {
							errs <- err
						}
					}
				case 1:
					res, err := s.Apply(seed.ID, live, 2)
					if err != nil {
						errs <- err
						continue
					}
					if res.Output[0] != "917-555-0100" || res.Drift.Drifted != 1 {
						errs <- fmt.Errorf("apply under load: %+v", res)
					}
				case 2:
					s.List()
					s.Get(seed.ID)
				case 3:
					if _, err := s.Register(prog, Meta{ID: seed.ID}); err != nil {
						errs <- err
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The survivors all recover.
	want := s.List()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-stress recovery differs:\n got %d entries\nwant %d entries", len(got), len(want))
	}
}
