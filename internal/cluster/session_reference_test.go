package cluster_test

// The session-level reference differential: a clx.Session keeps the
// profile index it built at create and folds appends into it, and what it
// shows the user — leaf clusters and every hierarchy level — must equal
// the reference per-row profile of the column so far, for every append
// schedule. This is an external test package so it can import clx, which
// itself imports cluster.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	clx "clx"
	"clx/internal/cluster"
	"clx/internal/dataset"
)

// viewFingerprint renders the user-visible fields of a cluster list.
func viewFingerprint(cs []clx.Cluster) string {
	var b strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&b, "%s count=%d sample=%q rows=%v\n", c.Pattern.Key(), c.Count, c.Sample, c.Rows)
	}
	return b.String()
}

// referenceLevel is Session.Level over a reference hierarchy: each node's
// pattern, covered row count, leaf rows in leaf order, and the sample row.
func referenceLevel(h *cluster.Hierarchy, level int) []clx.Cluster {
	var out []clx.Cluster
	for _, n := range h.Levels[level] {
		c := clx.Cluster{Pattern: n.Pattern, Count: n.Rows()}
		for _, leaf := range n.Leaves {
			c.Rows = append(c.Rows, leaf.Rows...)
		}
		if len(c.Rows) > 0 {
			c.Sample = h.Data[c.Rows[0]]
		}
		out = append(out, c)
	}
	return out
}

// referenceLeaves is Session.Clusters over a reference hierarchy.
func referenceLeaves(h *cluster.Hierarchy) []clx.Cluster {
	out := make([]clx.Cluster, 0, len(h.Clusters))
	for _, c := range h.Clusters {
		out = append(out, clx.Cluster{Pattern: c.Pattern, Count: c.Count(), Sample: c.Sample, Rows: c.Rows})
	}
	return out
}

// TestSessionAppendMatchesReference: for every reference corpus, option
// set, worker count, and append schedule — one create, create then one
// append, four increments, an empty create then everything — the
// session's clusters and levels after each step equal the reference
// profile of the rows added so far. The reference corpora take one shard;
// an 8,192-row phone column at four workers takes one, two or four,
// depending on the schedule's first non-empty batch.
func TestSessionAppendMatchesReference(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	cols := cluster.ReferenceColumns()
	cols["phones-large"], _ = dataset.Phones(8192, 6, 77)
	for name, rows := range cols {
		n := len(rows)
		schedules := [][]int{{n}, {n / 2, n}, {n / 4, n / 2, 3 * n / 4, n}, {0, n}}
		for _, discover := range []bool{true, false} {
			refOpts := cluster.DefaultOptions()
			refOpts.DiscoverConstants = discover
			for _, w := range []int{1, 4} {
				opts := clx.DefaultOptions()
				opts.DiscoverConstants = discover
				opts.Workers = w
				for _, cuts := range schedules {
					sess := clx.NewSession(rows[:cuts[0]], opts)
					for step, cut := range cuts {
						if step > 0 {
							sess.AppendAndReprofile(rows[cuts[step-1]:cut])
						}
						ref := cluster.ReferenceProfile(rows[:cut], refOpts)
						label := fmt.Sprintf("%s discover=%v workers=%d cuts=%v after %d rows", name, discover, w, cuts, cut)
						if got, want := viewFingerprint(sess.Clusters()), viewFingerprint(referenceLeaves(ref)); got != want {
							t.Errorf("%s: clusters diverge from reference\ngot:\n%s\nwant:\n%s", label, got, want)
						}
						if sess.Levels() != len(ref.Levels) {
							t.Fatalf("%s: %d levels, reference %d", label, sess.Levels(), len(ref.Levels))
						}
						for l := range ref.Levels {
							if viewFingerprint(sess.Level(l)) != viewFingerprint(referenceLevel(ref, l)) {
								t.Errorf("%s: level %d diverges from reference", label, l)
							}
						}
					}
				}
			}
		}
	}
}
