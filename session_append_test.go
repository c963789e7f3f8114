package clx_test

// Session-level tests for the incremental profile API: AppendAndReprofile
// must be observably indistinguishable from NewSession over the
// concatenated column, across one and many appends, while transformations
// labeled before an append keep operating on their snapshot.

import (
	"reflect"
	"testing"

	clx "clx"
	"clx/internal/dataset"
)

// sameProfile asserts two sessions expose identical public profile state:
// data, clusters, and every hierarchy level.
func sameProfile(t *testing.T, got, want *clx.Session, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.Data(), want.Data()) {
		t.Errorf("%s: Data diverges (%d vs %d rows)", label, len(got.Data()), len(want.Data()))
	}
	if !reflect.DeepEqual(got.Clusters(), want.Clusters()) {
		t.Errorf("%s: Clusters diverge", label)
	}
	if got.Levels() != want.Levels() {
		t.Fatalf("%s: Levels = %d, want %d", label, got.Levels(), want.Levels())
	}
	for l := 0; l < want.Levels(); l++ {
		if !reflect.DeepEqual(got.Level(l), want.Level(l)) {
			t.Errorf("%s: level %d diverges", label, l)
		}
	}
}

func TestAppendAndReprofileMatchesFresh(t *testing.T) {
	rows, _ := dataset.Phones(600, 6, 41)
	for _, cuts := range [][]int{{300}, {150, 300, 450}, {0, 600}} {
		sess := clx.NewSession(rows[:cuts[0]])
		prev := cuts[0]
		for _, cut := range cuts[1:] {
			sess.AppendAndReprofile(rows[prev:cut])
			prev = cut
		}
		st := sess.AppendAndReprofile(rows[prev:])
		if st.Rows != len(rows) {
			t.Fatalf("cuts %v: stats = %+v, want Rows=%d", cuts, st, len(rows))
		}
		sameProfile(t, sess, clx.NewSession(rows), "append schedule")
	}
}

func TestAppendAndReprofileEmptyAppend(t *testing.T) {
	sess := clx.NewSession(phones)
	st := sess.AppendAndReprofile(nil)
	if st.Rows != len(phones) {
		t.Fatalf("Rows = %d, want %d", st.Rows, len(phones))
	}
	sameProfile(t, sess, clx.NewSession(phones), "empty append")
}

// TestLabelAfterAppend: labeling after an append synthesizes over the
// grown column, and the transformation covers every row of it.
func TestLabelAfterAppend(t *testing.T) {
	sess := clx.NewSession(phones[:4])
	sess.AppendAndReprofile(phones[4:])
	tr, err := sess.Label(clx.MustParsePattern("<D>3'-'<D>3'-'<D>4"))
	if err != nil {
		t.Fatal(err)
	}
	out, flagged := tr.Run()
	if len(out) != len(phones) {
		t.Fatalf("Run over %d rows, want %d", len(out), len(phones))
	}
	want := []string{
		"734-645-8397", "734-586-7252", "734-422-8073",
		"734-236-3466", "313-263-1192", "N/A",
	}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("out = %v, want %v", out, want)
	}
	if !reflect.DeepEqual(flagged, []int{5}) {
		t.Errorf("flagged = %v, want [5]", flagged)
	}
}

// TestTransformationSnapshotSurvivesAppend: a transformation labeled
// before an append keeps running over the column it was labeled against,
// even after the session grows past it.
func TestTransformationSnapshotSurvivesAppend(t *testing.T) {
	sess := clx.NewSession(phones[:5]) // all transformable rows
	tr, err := sess.Label(clx.MustParsePattern("<D>3'-'<D>3'-'<D>4"))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := tr.Run()
	preview := tr.ExplainWithPreview(2)

	sess.AppendAndReprofile(phones[5:])

	after, _ := tr.Run()
	if !reflect.DeepEqual(after, before) {
		t.Errorf("append changed a labeled transformation's output: %v vs %v", after, before)
	}
	if len(after) != 5 {
		t.Errorf("snapshot run covers %d rows, want 5", len(after))
	}
	if got := tr.ExplainWithPreview(2); got != preview {
		t.Error("append changed a labeled transformation's preview")
	}
	if got := len(sess.Data()); got != len(phones) {
		t.Errorf("session Data has %d rows, want %d", got, len(phones))
	}
}

// TestProfileIndexStatsCounters: the process-wide profile counters move
// when sessions profile and append.
func TestProfileIndexStatsCounters(t *testing.T) {
	before := clx.ProfileIndexStats()
	sess := clx.NewSession(phones)
	sess.AppendAndReprofile(phones[:2])
	after := clx.ProfileIndexStats()

	if d := after.Profiles - before.Profiles; d != 2 {
		t.Errorf("Profiles advanced by %d, want 2", d)
	}
	if d := after.IncrementalProfiles - before.IncrementalProfiles; d != 1 {
		t.Errorf("IncrementalProfiles advanced by %d, want 1", d)
	}
	if d := after.AppendedRows - before.AppendedRows; d != 2 {
		t.Errorf("AppendedRows advanced by %d, want 2", d)
	}
	if d := after.RowsProfiled - before.RowsProfiled; d != int64(2*len(phones)+2) {
		t.Errorf("RowsProfiled advanced by %d, want %d", d, 2*len(phones)+2)
	}
}
