// The hot apply path and its drift check. Apply runs rows through a
// stored program without any synthesis — matching goes through the
// process-wide rematch compile cache and row fan-out through the shared
// worker pool — and extends the paper's verifiability story to serving
// time: rows matching none of the program's recorded patterns (neither
// the target nor any source) are counted, clustered into the novel
// formats they exhibit, and checked against the Eq 1–2 validation filter,
// so a client learns not just *that* its saved program no longer covers
// the live column but *which* new formats appeared and whether
// re-synthesis could cover them.
package progstore

import (
	clx "clx"

	"clx/internal/cluster"
	"clx/internal/synth"
)

// ApplyResult is the outcome of applying a stored program to a column.
type ApplyResult struct {
	// ID and Version identify the program version that ran.
	ID      string `json:"id"`
	Version int    `json:"version"`
	// Output is the transformed column; Flagged the indices of rows left
	// unchanged because no recorded pattern covers them (§6.1:
	// flag, don't touch).
	Output  []string `json:"output"`
	Flagged []int    `json:"flagged,omitempty"`
	// Drift describes the flagged rows as format drift.
	Drift DriftReport `json:"drift"`
}

// DriftReport summarizes the rows of a live column that escaped the
// program's recorded source-pattern profile.
type DriftReport struct {
	// Checked is the number of rows applied; Drifted how many matched no
	// recorded pattern. Drifted == 0 means the saved program still covers
	// the column exactly as at synthesis time.
	Checked int `json:"checked"`
	Drifted int `json:"drifted"`
	// Clusters are the novel formats among the drifted rows, profiled
	// with the same §4.1 clustering the synthesis side uses.
	Clusters []DriftCluster `json:"clusters,omitempty"`
}

// DriftCluster is one novel format.
type DriftCluster struct {
	// Pattern (compact) and NL (display regexp) render the format.
	Pattern string `json:"pattern"`
	NL      string `json:"nl"`
	// Count is the number of drifted rows with this format; Samples holds
	// up to driftSampleCap of them.
	Count   int      `json:"count"`
	Samples []string `json:"samples"`
	// Resynthesizable reports the Eq-2 validation verdict V(p, target):
	// whether the format passes the token-frequency filter a fresh
	// Algorithm-2 run would apply, i.e. whether re-registering the program
	// over the drifted data could cover it.
	Resynthesizable bool `json:"resynthesizable"`
}

func matchesAny(ps []clx.Pattern, s string) bool {
	for _, p := range ps {
		if p.Matches(s) {
			return true
		}
	}
	return false
}

// driftSampleCap bounds the sample rows carried per drift cluster.
const driftSampleCap = 3

// Load returns the decoded program for id together with its version — the
// entry point for callers that drive the program themselves, e.g. the
// streaming bulk-apply engine. The returned program is a private shallow
// copy: setting Workers on it never races another apply of the same id.
func (s *Store) Load(id string) (*clx.SavedProgram, int, error) {
	lp, version, err := s.program(id)
	if err != nil {
		return nil, 0, err
	}
	sp := *lp.sp
	return &sp, version, nil
}

// Apply runs rows through stored program id with the given worker
// fan-out. It performs no synthesis: the decoded program is cached per
// version, and its matchers are shared process-wide.
func (s *Store) Apply(id string, rows []string, workers int) (*ApplyResult, error) {
	lp, version, err := s.program(id)
	if err != nil {
		return nil, err
	}
	// Shallow-copy the shared program so the per-request worker count
	// never races another apply on the same id.
	sp := *lp.sp
	sp.Workers = workers
	out, flagged := sp.Transform(rows)
	res := &ApplyResult{
		ID:      id,
		Version: version,
		Output:  out,
		Flagged: flagged,
		Drift:   driftReport(rows, flagged, lp, workers),
	}
	return res, nil
}

// driftReport profiles the drifted rows into their novel formats. A row
// drifts when it matches neither the target nor any recorded source. For
// an unguarded program those are exactly the flagged rows; a guarded one
// also flags rows of a recorded source whose keyword is in no guarded
// group, and those are not drift.
func driftReport(rows []string, flagged []int, lp *loadedProgram, workers int) DriftReport {
	var sources []clx.Pattern
	if len(flagged) > 0 && lp.sp.Guarded() {
		sources = lp.sp.Sources()
	}
	drifted := make([]string, 0, len(flagged))
	for _, ri := range flagged {
		if !matchesAny(sources, rows[ri]) {
			drifted = append(drifted, rows[ri])
		}
	}
	rep := DriftReport{Checked: len(rows), Drifted: len(drifted)}
	if len(drifted) == 0 {
		return rep
	}
	co := cluster.DefaultOptions()
	co.Workers = workers
	h := cluster.Profile(drifted, co)
	for _, c := range h.Clusters {
		dc := DriftCluster{
			Pattern:         c.Pattern.String(),
			NL:              c.Pattern.NLRegex(),
			Count:           c.Count(),
			Resynthesizable: synth.Validate(c.Pattern, lp.target, false),
		}
		for _, ri := range c.Rows {
			if len(dc.Samples) == driftSampleCap {
				break
			}
			dc.Samples = append(dc.Samples, drifted[ri])
		}
		rep.Clusters = append(rep.Clusters, dc)
	}
	return rep
}
