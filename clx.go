// Package clx implements CLX ("clicks"), the Cluster–Label–Transform
// paradigm for verifiable programming-by-example data transformation
// (Jin et al., "CLX: Towards verifiable PBE data transformation", 2019).
//
// A CLX session proceeds in three phases:
//
//  1. Cluster — the input column is profiled into a hierarchy of pattern
//     clusters (NewSession), so the user verifies at the pattern level
//     instead of record by record. The session keeps the distinct-value
//     index it profiled with, so Session.AppendAndReprofile folds in only
//     the appended rows;
//  2. Label — the user picks the desired target pattern (Session.Label),
//     either one of the discovered patterns or a manually specified one;
//  3. Transform — CLX synthesizes a UniFi program, rendered as regular
//     expression Replace operations anyone can read
//     (Transformation.Replaces), applies it (Transformation.Run), and
//     offers ranked alternative plans for one-click repair
//     (Transformation.Repair).
//
// Every job that applies a program runs one engine, SavedProgram: the
// target identity check, then the fused byte automaton, then the compiled
// backtracking program. Transformation.Run and Apply use the engine
// LoadProgram would build from the transformation's Export, so the rows a
// user verifies are produced by the code that later serves the program.
//
// Quick start:
//
//	sess := clx.NewSession([]string{"(734) 645-8397", "734.236.3466", "734-422-8073"})
//	for _, c := range sess.Clusters() {
//		fmt.Println(c.Pattern, c.Count, c.Sample)
//	}
//	tr, _ := sess.Label(clx.MustParsePattern("<D>3'-'<D>3'-'<D>4"))
//	fmt.Println(tr.Explain())  // numbered Replace operations (paper Fig. 4)
//	out, flagged := tr.Run()   // transformed column + unmatched row indices
//	_, _ = out, flagged
package clx

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"clx/internal/cluster"
	"clx/internal/obs"
	"clx/internal/parallel"
	"clx/internal/pattern"
	"clx/internal/replace"
	"clx/internal/synth"
	"clx/internal/unifi"
)

// Pipeline stage latency histograms — one series per phase of the
// Cluster–Label–Transform loop, plus the saved-program bulk apply. The
// quantitative-PBE signal an operator watches: profile cost tracks input
// shape, synthesize cost tracks format diversity, transform/apply cost is
// the serving hot path.
var (
	obsProfileDur = obs.NewHistogram("clx_stage_duration_seconds",
		"Latency of one pipeline stage.", nil, "stage", "profile")
	obsSynthDur = obs.NewHistogram("clx_stage_duration_seconds",
		"Latency of one pipeline stage.", nil, "stage", "synthesize")
	obsTransformDur = obs.NewHistogram("clx_stage_duration_seconds",
		"Latency of one pipeline stage.", nil, "stage", "transform")
	obsApplyDur = obs.NewHistogram("clx_stage_duration_seconds",
		"Latency of one pipeline stage.", nil, "stage", "apply")
)

// Profile-index counters: how many profile passes ran, how much data they
// chewed through, and how much arrived incrementally via
// Session.AppendAndReprofile. One set of atomics serves both surfaces —
// clxd GET /v1/stats reports them as the ProfileIndexCounters JSON
// document and GET /metrics exposes the same series (clx_profile_*).
var (
	obsProfileRuns = obs.NewCounter("clx_profile_runs_total",
		"Completed profile passes (initial sessions and incremental re-profiles).")
	obsProfileIncremental = obs.NewCounter("clx_profile_incremental_runs_total",
		"Incremental re-profiles via Session.AppendAndReprofile.")
	obsProfileRows = obs.NewCounter("clx_profile_rows_total",
		"Rows covered by completed profile passes (full column per pass).")
	obsProfileAppended = obs.NewCounter("clx_profile_appended_rows_total",
		"Rows appended to live sessions via Session.AppendAndReprofile.")
	obsProfileDistinct = obs.NewCounter("clx_profile_distinct_values_total",
		"Distinct values across completed profile passes.")
)

// ProfileIndexCounters is a snapshot of the process-wide profiling
// counters: every profile pass since process start plus the row volume the
// passes covered. Every pass runs on the session's distinct-value index;
// Incremental counts re-profiles of appended data, which fold only the
// appended rows into the index a session built at create.
type ProfileIndexCounters struct {
	Profiles            int64 `json:"profiles"`
	IncrementalProfiles int64 `json:"incremental_profiles"`
	RowsProfiled        int64 `json:"rows_profiled"`
	AppendedRows        int64 `json:"appended_rows"`
	DistinctValues      int64 `json:"distinct_values"`
}

// ProfileIndexStats returns a snapshot of the process-wide profile-index
// counters (clxd serves it under GET /v1/stats).
func ProfileIndexStats() ProfileIndexCounters {
	return ProfileIndexCounters{
		Profiles:            obsProfileRuns.Value(),
		IncrementalProfiles: obsProfileIncremental.Value(),
		RowsProfiled:        obsProfileRows.Value(),
		AppendedRows:        obsProfileAppended.Value(),
		DistinctValues:      obsProfileDistinct.Value(),
	}
}

// recordProfile folds one completed profile pass into the process
// counters.
func recordProfile(st *cluster.Stats, incremental bool, appended int) {
	obsProfileRuns.Inc()
	if incremental {
		obsProfileIncremental.Inc()
		obsProfileAppended.Add(int64(appended))
	}
	obsProfileRows.Add(int64(st.Rows))
	obsProfileDistinct.Add(int64(st.DistinctValues))
}

// Pattern is a CLX data pattern: a sequence of quantified tokens such as
// <D>3'-'<D>3'-'<D>4 (paper §3.1).
type Pattern = pattern.Pattern

// ParsePattern parses the compact pattern notation, e.g.
// "'['<U>+'-'<D>+']'".
func ParsePattern(s string) (Pattern, error) { return pattern.Parse(s) }

// MustParsePattern is ParsePattern but panics on error.
func MustParsePattern(s string) Pattern { return pattern.MustParse(s) }

// ParseNLPattern parses the natural-language regexp display syntax of
// Fig. 4, e.g. "/^{digit}{3}-{digit}{3}-{digit}{4}$/".
func ParseNLPattern(s string) (Pattern, error) { return pattern.ParseNL(s) }

// ParseAnyPattern accepts either notation: the compact form
// ("<D>3'-'<D>4") or the natural-language form ("{digit}{3}-{digit}{4}").
func ParseAnyPattern(s string) (Pattern, error) {
	if p, err := pattern.Parse(s); err == nil {
		return p, nil
	}
	return pattern.ParseNL(s)
}

// PatternOf derives the pattern of a single string by tokenization (§4.1).
func PatternOf(s string) Pattern { return pattern.FromString(s) }

// Options configure a session.
type Options struct {
	// DiscoverConstants enables constant-token discovery (§4.1); on by
	// default.
	DiscoverConstants bool
	// Alternatives is the number of ranked transformation plans kept per
	// source pattern for repair (§6.4).
	Alternatives int
	// Workers bounds the goroutine fan-out of the profile → synthesize →
	// transform pipeline: 0 (the default) uses one worker per CPU, 1
	// reproduces the serial execution exactly. Results — cluster order,
	// plan ranking, transformed rows, flagged indices — are byte-identical
	// for every worker count (see DESIGN.md §7).
	Workers int
}

// DefaultOptions returns the prototype configuration.
func DefaultOptions() Options {
	return Options{DiscoverConstants: true, Alternatives: synth.DefaultOptions().K}
}

func (o Options) clusterOptions() cluster.Options {
	co := cluster.DefaultOptions()
	co.DiscoverConstants = o.DiscoverConstants
	co.Workers = o.Workers
	return co
}

func (o Options) synthOptions() synth.Options {
	so := synth.DefaultOptions()
	if o.Alternatives > 0 {
		so.K = o.Alternatives
	}
	so.Workers = o.Workers
	return so
}

// Cluster is one pattern cluster of the profiled input.
type Cluster struct {
	// Pattern is the cluster's pattern, e.g. '('<D>3')'' '<D>3'-'<D>4.
	Pattern Pattern
	// Count is the number of rows in the cluster.
	Count int
	// Sample is the first member row.
	Sample string
	// Rows are the member row indices. Session.Clusters shares them with
	// the session's profile index; callers must not modify them.
	Rows []int
}

// Session is a Cluster–Label–Transform session over one column of data.
//
// A Session is not goroutine-safe: callers that share one across
// goroutines (the clxd session endpoints do) must serialize access —
// internal/sessionstore holds one mutex per live session for exactly
// this.
type Session struct {
	// data is the session-owned column: NewSession copies the caller's
	// slice into the index and Data copies out, so no external code ever
	// aliases it. It is the same backing slice as h.Data at all times.
	data  []string
	opts  Options
	h     *cluster.Hierarchy
	stats ProfileStats
	// ix is the profile index NewSession built; appends fold into it so
	// re-profiling costs O(appended rows), not O(column).
	ix *cluster.Index
	// gen counts the column-changing re-profiles: it starts at 0 and
	// advances once per non-empty AppendAndReprofile. Transformations
	// record the generation they were labeled at (Transformation.Stale
	// compares the two).
	gen uint64
}

// ProfileStats describes the work the Cluster phase did: input and
// deduplicated sizes, the leaf pattern count, and the per-phase wall time.
// The distinct/rows ratio is the lever behind the profile index — a
// dup-heavy column tokenizes each value once, not once per row.
type ProfileStats struct {
	// Rows is the input column size; DistinctValues the deduplicated size.
	Rows, DistinctValues int
	// LeafPatterns is the number of initial (level-0) pattern clusters.
	LeafPatterns int
	// Phase wall times for the profile stages: deduplication, tokenize
	// and intern of new distinct values, the first-seen grouping walk,
	// constant discovery, and refinement. After an append, Index and
	// Tokenize cover only the appended rows.
	Index, Tokenize, Group, Constants, Refine time.Duration
}

// profileStatsOf converts the cluster-layer stats to the public mirror.
func profileStatsOf(st *cluster.Stats) ProfileStats {
	return ProfileStats{
		Rows:           st.Rows,
		DistinctValues: st.DistinctValues,
		LeafPatterns:   st.LeafPatterns,
		Index:          st.Index,
		Tokenize:       st.Tokenize,
		Group:          st.Group,
		Constants:      st.Constants,
		Refine:         st.Refine,
	}
}

// NewSession profiles data into pattern clusters (the Cluster phase) and
// keeps the profile index it built, so later appends fold in only the new
// rows. The input slice is copied into the index: mutating it afterwards
// never changes what the session profiles (strings themselves are
// immutable).
func NewSession(data []string, opts ...Options) *Session {
	defer func(t0 time.Time) { obsProfileDur.Observe(time.Since(t0)) }(time.Now())
	o := DefaultOptions()
	if len(opts) > 0 {
		o = opts[0]
	}
	ix := cluster.NewIndex(o.clusterOptions())
	ix.Add(data)
	h, st := ix.ProfileWithStats()
	recordProfile(st, false, 0)
	return &Session{data: h.Data, opts: o, h: h, stats: profileStatsOf(st), ix: ix}
}

// AppendAndReprofile appends rows to the session's column and re-profiles
// it incrementally: it folds only the appended rows into the index
// NewSession built, tokenizing and interning just the values the session
// has never seen, and re-runs only grouping and refinement — so a small
// append re-profiles an order of magnitude faster than profiling the grown
// column from scratch.
// The resulting clusters, hierarchy, and stats are byte-identical to
// NewSession over the concatenated column.
//
// Transformations synthesized before the append keep operating on the
// column snapshot they were labeled against; call Label again to
// synthesize over the grown column. The updated ProfileStats (whose Index
// and Tokenize phases cover only the appended rows' work) is returned.
func (s *Session) AppendAndReprofile(rows []string) ProfileStats {
	// An empty append changes nothing: return the current stats without
	// re-running any profile phase or counting a profile pass.
	if len(rows) == 0 {
		return s.stats
	}
	defer func(t0 time.Time) { obsProfileDur.Observe(time.Since(t0)) }(time.Now())
	s.ix.Add(rows)
	h, st := s.ix.ProfileWithStats()
	recordProfile(st, true, len(rows))
	s.h = h
	s.data = h.Data
	s.stats = profileStatsOf(st)
	s.gen++
	return s.stats
}

// ProfileStats reports how much work profiling this session's column took.
func (s *Session) ProfileStats() ProfileStats { return s.stats }

// Data returns a copy of the session's current column. Together with the
// input copy NewSession takes, the copy keeps callers from aliasing
// session-internal state: mutating the returned slice — or the slice
// originally passed to NewSession — never changes what the session
// profiles or transforms.
func (s *Session) Data() []string { return append([]string(nil), s.data...) }

// Generation reports how many times the session's column has changed:
// 0 at NewSession, +1 per non-empty AppendAndReprofile. A Transformation
// records the generation it was labeled at; comparing the two is how the
// session API detects transformations operating on a stale snapshot.
func (s *Session) Generation() uint64 { return s.gen }

// Clusters returns the leaf pattern clusters in first-seen order — the
// pattern list shown to the user (paper Fig. 3).
//
// Each Cluster.Rows is shared with the session's profile index, not
// copied: writing into it corrupts every later profile of the session,
// so callers must treat it as read-only (copy it to modify it).
func (s *Session) Clusters() []Cluster {
	out := make([]Cluster, 0, len(s.h.Clusters))
	for _, c := range s.h.Clusters {
		out = append(out, Cluster{
			Pattern: c.Pattern, Count: c.Count(), Sample: c.Sample, Rows: c.Rows,
		})
	}
	return out
}

// Level returns the pattern clusters of one hierarchy level (0 = leaves,
// 3 = most generic; paper Fig. 6).
func (s *Session) Level(level int) []Cluster {
	if level < 0 || level >= len(s.h.Levels) {
		return nil
	}
	var out []Cluster
	for _, n := range s.h.Levels[level] {
		c := Cluster{Pattern: n.Pattern, Count: n.Rows()}
		for _, leaf := range n.Leaves {
			c.Rows = append(c.Rows, leaf.Rows...)
		}
		if len(c.Rows) > 0 {
			c.Sample = s.data[c.Rows[0]]
		}
		out = append(out, c)
	}
	return out
}

// Levels returns the number of hierarchy levels (4 in the prototype).
func (s *Session) Levels() int { return len(s.h.Levels) }

// Label selects the target pattern and synthesizes the transformation (the
// Label and Transform phases). The target is usually one of the discovered
// patterns — possibly from a higher hierarchy level — or a manually
// written pattern. An error is returned only for an empty target on
// non-empty data.
func (s *Session) Label(target Pattern) (*Transformation, error) {
	if target.IsEmpty() && len(s.data) > 0 {
		return nil, fmt.Errorf("clx: empty target pattern")
	}
	t0 := time.Now()
	res := synth.Synthesize(s.h, target, s.opts.synthOptions())
	obsSynthDur.Observe(time.Since(t0))
	return &Transformation{sess: s, data: s.h.Data, res: res, gen: s.gen}, nil
}

// Transformation is a synthesized data pattern transformation: a UniFi
// program presented as regexp Replace operations, with ranked alternatives
// for repair.
type Transformation struct {
	sess *Session
	// data is the column snapshot the transformation was labeled against;
	// the session may grow past it via AppendAndReprofile.
	data []string
	res  *synth.Result
	// gen is the session generation at Label time (see Stale).
	gen uint64
	// guards holds content-conditional overrides keyed by source pattern
	// (RepairWithExamples).
	guards map[string][]unifi.GuardedCase
	// engine is the program bound to the serving engine (the one
	// LoadProgram builds), made by the first Run or Apply and dropped by
	// every repair. Building it costs far more than one row, so it is kept;
	// it is atomic so concurrent Run and Apply calls stay safe.
	engine atomic.Pointer[SavedProgram]
}

// Generation returns the session generation this transformation was
// labeled at.
func (t *Transformation) Generation() uint64 { return t.gen }

// Stale reports whether the session's column has grown past the snapshot
// this transformation was labeled against (a non-empty AppendAndReprofile
// happened after Label). A stale transformation still runs over its
// snapshot — that contract is pinned by
// TestTransformationSnapshotSurvivesAppend — but API layers should
// surface the condition instead of silently transforming old data: the
// clxd session endpoints answer repair and commit on a stale
// transformation with a documented 409, and the fix is to call
// Session.Label again, re-synthesizing over the grown column.
func (t *Transformation) Stale() bool { return t.gen != t.sess.gen }

// Target returns the labeled target pattern.
func (t *Transformation) Target() Pattern { return t.res.Target }

// Sources returns the source patterns the program covers, in synthesis
// order.
func (t *Transformation) Sources() []Pattern {
	out := make([]Pattern, len(t.res.Sources))
	for i, s := range t.res.Sources {
		out[i] = s.Source
	}
	return out
}

// Replaces returns the program as Replace operations (paper Fig. 4), one
// per source pattern — or one per guarded case for sources repaired with
// examples, each annotated with its condition. Each op's SourceIndex names
// the source it serves, whose Alternatives are its repair choices: a
// source repaired with examples serves several ops, so op and source
// indices differ after one. Guarded cases of a pattern no source covers
// serve none (-1).
func (t *Transformation) Replaces() replace.Program {
	gp, sources := t.guardedProgram()
	var out replace.Program
	for k, c := range gp.Cases {
		op := replace.ExplainCase(unifi.Case{Source: c.Source, Plan: c.Plan})
		if c.Guard != nil {
			op.Where = c.Guard.String()
		}
		op.SourceIndex = sources[k]
		out = append(out, op)
	}
	return out
}

// Explain renders the numbered Replace-operation list shown to the user.
func (t *Transformation) Explain() string { return t.Replaces().String() }

// ExplainWithPreview renders the Replace operations with a per-operation
// before/after preview table sampled from the session's data (paper
// Fig. 8), perOp rows each.
func (t *Transformation) ExplainWithPreview(perOp int) string {
	return t.Replaces().PreviewTable(t.data, perOp)
}

// Preview samples up to max rows of the labeled snapshot that op
// transforms, with their outputs (the per-operation rows of
// ExplainWithPreview).
func (t *Transformation) Preview(op replace.Op, max int) []replace.PreviewRow {
	return op.Preview(t.data, max)
}

// Program returns the underlying UniFi program.
func (t *Transformation) Program() unifi.Program { return t.res.Program() }

// Alternatives returns the ranked alternative plans for source i as
// Replace operations, best first; Alternatives(i)[0] is the plan in effect
// by default. Each carries SourceIndex i.
func (t *Transformation) Alternatives(i int) []replace.Op {
	if i < 0 || i >= len(t.res.Sources) {
		return nil
	}
	src := t.res.Sources[i]
	out := make([]replace.Op, len(src.Plans))
	for j, r := range src.Plans {
		out[j] = replace.ExplainCase(unifi.Case{Source: src.Source, Plan: r.Plan})
		out[j].SourceIndex = i
	}
	return out
}

// PlanCount returns how many ranked plans source i has — the length of
// Alternatives(i) and of RepairCandidates(i), with neither rendered nor
// scored. Out-of-range sources have none.
func (t *Transformation) PlanCount(i int) int {
	if i < 0 || i >= len(t.res.Sources) {
		return 0
	}
	return len(t.res.Sources[i].Plans)
}

// Repair replaces source i's plan with its j-th ranked alternative (§6.4).
func (t *Transformation) Repair(i, j int) error {
	t.engine.Store(nil)
	return t.res.Repair(i, j)
}

// Refine drills into source i's child patterns when none of its plans is
// right: the source is replaced by one entry per solvable child pattern,
// each with its own ranked plans (the hierarchy affordance of §4.2).
func (t *Transformation) Refine(i int) error {
	t.engine.Store(nil)
	return t.res.Refine(i)
}

// RepairWithExamples resolves a content conditional — the §7.4 extension
// for formats where the right transformation depends on a token's value
// ("picture 001" vs "invoice 001"), which no single pattern-level plan can
// express. The examples map inputs of one format to their desired outputs;
// CLX derives the format's pattern, finds the discriminating token, and
// installs one guarded plan per value group (replacing the format's
// unconditional plan if it had one). Inputs of the format carrying a
// keyword outside the example groups are left unmatched (flagged on Run).
func (t *Transformation) RepairWithExamples(examples map[string]string) error {
	if len(examples) < 2 {
		return fmt.Errorf("clx: need at least two examples, got %d", len(examples))
	}
	ins := make([]string, 0, len(examples))
	for in := range examples {
		ins = append(ins, in)
	}
	sort.Strings(ins)
	// The examples must share one format; its '+'-generalization is the
	// guarded source pattern.
	src := cluster.Generalize(pattern.FromString(ins[0]), cluster.QuantToPlus)
	wants := make([]string, len(ins))
	for k, in := range ins {
		if !src.Matches(in) {
			return fmt.Errorf("clx: example inputs mix formats: %q does not match %s", in, src)
		}
		wants[k] = examples[in]
	}
	cases, ok := synth.ConditionalSplit(src, ins, wants, t.sess.opts.synthOptions())
	if !ok {
		return fmt.Errorf("clx: no conditional split covers the examples for source %s", src)
	}
	if t.guards == nil {
		t.guards = make(map[string][]unifi.GuardedCase)
	}
	t.guards[src.Key()] = cases
	t.engine.Store(nil)
	return nil
}

// guardedProgram assembles the program with any guarded overrides: guarded
// cases replace same-pattern unconditional sources and otherwise extend the
// program. sources[k] is the index of the source case k serves, or -1 for
// a guarded case extending the program.
func (t *Transformation) guardedProgram() (gp unifi.GuardedProgram, sources []int) {
	used := make(map[string]bool, len(t.guards))
	for i, s := range t.res.Sources {
		// Only a guarded transformation needs the (rendered) pattern key.
		if len(t.guards) > 0 {
			if cases, ok := t.guards[s.Source.Key()]; ok {
				gp.Cases = append(gp.Cases, cases...)
				for range cases {
					sources = append(sources, i)
				}
				used[s.Source.Key()] = true
				continue
			}
		}
		gp.Cases = append(gp.Cases, unifi.GuardedCase{Source: s.Source, Plan: s.Plan()})
		sources = append(sources, i)
	}
	var extra []string
	for k := range t.guards {
		if !used[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		gp.Cases = append(gp.Cases, t.guards[k]...)
		for range t.guards[k] {
			sources = append(sources, -1)
		}
	}
	return gp, sources
}

// Run applies the transformation to the session's column. Rows already in
// the target pattern are untouched; rows matching no source candidate (or,
// for guarded sources, carrying an unknown keyword) are copied through and
// their indices returned in flagged for review (§6.1). It runs the engine
// a saved copy of the program is served by.
func (t *Transformation) Run() (out []string, flagged []int) {
	defer func(t0 time.Time) { obsTransformDur.Observe(time.Since(t0)) }(time.Now())
	return t.served().transform(t.data)
}

// served returns the transformation's serving engine, building it on
// first use after Label or a repair.
func (t *Transformation) served() *SavedProgram {
	if sp := t.engine.Load(); sp != nil {
		return sp
	}
	gp, _ := t.guardedProgram()
	sp := newSavedProgram(t.res.Target, gp)
	sp.Workers = t.sess.opts.Workers
	t.engine.CompareAndSwap(nil, sp) // a concurrent build's engine is equal
	return sp
}

// Flagged returns exactly Run's flagged row indices without rendering
// the output column: rows in the synthesis-time clean set are skipped,
// and every other row is only dispatched through the compiled program —
// guards and plan checks included — to see whether some case covers it.
// It does not build Run's engine: the label response calls Flagged once
// per labeling, and the automaton costs far more to build than the
// compiled program.
func (t *Transformation) Flagged() []int {
	gp, _ := t.guardedProgram()
	prog := gp.Compile()
	clean, data := t.res.CleanRows, t.data
	return parallel.Gather(t.sess.opts.Workers, len(data), func(lo, hi int, emit func(int)) {
		// clean is ascending: walk it alongside the shard's rows.
		k := sort.SearchInts(clean, lo)
		for i := lo; i < hi; i++ {
			if k < len(clean) && clean[k] == i {
				k++
				continue
			}
			if !prog.Covers(data[i]) {
				emit(i)
			}
		}
	})
}

// Apply transforms a single new string. ok is false when the string matches
// neither the target (left as is) nor any applicable source pattern.
func (t *Transformation) Apply(s string) (string, bool) { return t.served().Apply(s) }

// Unmatched returns the input rows covered by no source candidate.
func (t *Transformation) Unmatched() []int { return t.res.UnmatchedRows }

// Clean returns the input rows that already match the target pattern.
func (t *Transformation) Clean() []int { return t.res.CleanRows }
