// Handlers for stateful interactive sessions: the paper's cluster →
// label → transform → verify → repair loop held server-side across
// requests (ROADMAP item 3). The sessionstore owns lifecycle and
// locking; these handlers translate HTTP to the clx.Session/
// clx.Transformation API and enforce the staleness protocol — a
// transformation labeled before an append answers 409 until the client
// re-labels, instead of silently transforming the old snapshot.
//
// Admission mirrors streaming: past MaxSessions, create answers 429 with
// a Retry-After estimating the next TTL expiry.
package daemon

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	clx "clx"
	"clx/internal/obs"
	"clx/internal/progstore"
	"clx/internal/sessionstore"
)

// Per-stage latency of the session endpoints, one labeled series per
// stage, exported on /metrics and summarized under /v1/stats sessions.
var (
	sessCreateDur = obs.NewHistogram("clx_session_stage_duration_seconds",
		"Session endpoint latency by stage.", nil, "stage", "create")
	sessAppendDur = obs.NewHistogram("clx_session_stage_duration_seconds",
		"Session endpoint latency by stage.", nil, "stage", "append")
	sessLabelDur = obs.NewHistogram("clx_session_stage_duration_seconds",
		"Session endpoint latency by stage.", nil, "stage", "label")
	sessRepairDur = obs.NewHistogram("clx_session_stage_duration_seconds",
		"Session endpoint latency by stage.", nil, "stage", "repair")
	sessCommitDur = obs.NewHistogram("clx_session_stage_duration_seconds",
		"Session endpoint latency by stage.", nil, "stage", "commit")

	sessRepairsTotal = obs.NewCounter("clx_session_repairs_total",
		"Repairs applied through session endpoints (ranked picks and example feedback).")
	sessCommitsTotal = obs.NewCounter("clx_session_commits_total",
		"Session transformations committed into the program registry.")
)

// sessionJSON is the wire form of one session's state.
type sessionJSON struct {
	ID             string `json:"id"`
	Rows           int    `json:"rows"`
	DistinctValues int    `json:"distinct_values"`
	LeafPatterns   int    `json:"leaf_patterns"`
	Levels         int    `json:"levels"`
	// Generation counts the column-changing appends; it pairs with the
	// label response's generation to explain a 409.
	Generation uint64 `json:"generation"`
	// Labeled reports an installed transformation; Stale that it predates
	// the latest append and repair/commit will answer 409.
	Labeled  bool      `json:"labeled"`
	Stale    bool      `json:"stale,omitempty"`
	Created  time.Time `json:"created"`
	LastUsed time.Time `json:"last_used"`
}

// sessionJSONOf renders h. Caller holds the handle lock.
func sessionJSONOf(h *sessionstore.Handle) sessionJSON {
	sess := h.Session()
	st := sess.ProfileStats()
	j := sessionJSON{
		ID:             h.ID(),
		Rows:           st.Rows,
		DistinctValues: st.DistinctValues,
		LeafPatterns:   st.LeafPatterns,
		Levels:         sess.Levels(),
		Generation:     sess.Generation(),
		Created:        h.CreatedAt(),
		LastUsed:       h.LastUsed(),
	}
	if tr := h.Transformation(); tr != nil {
		j.Labeled = true
		j.Stale = tr.Stale()
	}
	return j
}

// acquireSession resolves {id}, locks the session, and writes the 404
// envelope itself on a miss. Callers must run release when done.
func (s *server) acquireSession(w http.ResponseWriter, r *http.Request) (*sessionstore.Handle, func(), bool) {
	id := r.PathValue("id")
	h, release, err := s.sessions.Acquire(id)
	if err != nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("session %s not found (expired or never created)", id))
		return nil, nil, false
	}
	return h, release, true
}

// sessionCreateRequest is the POST /v1/sessions body.
type sessionCreateRequest struct {
	// Rows is the column the session profiles and grows.
	Rows []string `json:"rows"`
}

// handleSessionCreate registers a session over the uploaded column and
// returns its id and profile. The routing proxy pins the id via
// X-Session-ID so rendezvous routing of follow-up requests lands here;
// direct clients get a minted id.
func (s *server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	defer func(t0 time.Time) { sessCreateDur.Observe(time.Since(t0)) }(time.Now())
	req, ok := decode[sessionCreateRequest](w, r)
	if !ok {
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing rows"))
		return
	}
	h, err := s.sessions.Create(r.Header.Get("X-Session-ID"), req.Rows, s.opts)
	if errors.Is(err, sessionstore.ErrFull) {
		w.Header().Set("Retry-After",
			strconv.Itoa(int(s.sessions.RetryAfter().Round(time.Second).Seconds())))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("session limit reached; retry later or delete a session"))
		return
	}
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	_, release, err := s.sessions.Acquire(h.ID())
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	defer release()
	writeJSON(w, http.StatusCreated, sessionJSONOf(h))
}

type sessionListResponse struct {
	Sessions []sessionstore.Info `json:"sessions"`
}

func (s *server) handleSessionList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, sessionListResponse{Sessions: s.sessions.List()})
}

func (s *server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	h, release, ok := s.acquireSession(w, r)
	if !ok {
		return
	}
	defer release()
	writeJSON(w, http.StatusOK, sessionJSONOf(h))
}

func (s *server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.Delete(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("session %s not found", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// handleSessionClusters serves the pattern hierarchy: without ?level=N
// the top-level clusters with member rows, with it the requested level
// (0 = leaves).
func (s *server) handleSessionClusters(w http.ResponseWriter, r *http.Request) {
	h, release, ok := s.acquireSession(w, r)
	if !ok {
		return
	}
	defer release()
	sess := h.Session()
	q := r.URL.Query().Get("level")
	if q == "" {
		writeJSON(w, http.StatusOK, clusterResponse{Clusters: toClusterJSON(sess.Clusters(), true)})
		return
	}
	level, err := strconv.Atoi(q)
	if err != nil || level < 0 || level >= sess.Levels() {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("level %q out of range [0,%d)", q, sess.Levels()))
		return
	}
	writeJSON(w, http.StatusOK, clusterResponse{Clusters: toClusterJSON(sess.Level(level), false)})
}

// sessionAppendRequest is the POST /v1/sessions/{id}/append body.
type sessionAppendRequest struct {
	Rows []string `json:"rows"`
}

type sessionAppendResponse struct {
	sessionJSON
	// Appended echoes the accepted row count; the profile re-ran
	// incrementally over just these rows (empty appends are no-ops).
	Appended int `json:"appended"`
}

func (s *server) handleSessionAppend(w http.ResponseWriter, r *http.Request) {
	defer func(t0 time.Time) { sessAppendDur.Observe(time.Since(t0)) }(time.Now())
	req, ok := decode[sessionAppendRequest](w, r)
	if !ok {
		return
	}
	h, release, ok := s.acquireSession(w, r)
	if !ok {
		return
	}
	defer release()
	h.Session().AppendAndReprofile(req.Rows)
	writeJSON(w, http.StatusOK, sessionAppendResponse{
		sessionJSON: sessionJSONOf(h),
		Appended:    len(req.Rows),
	})
}

// sessionLabelRequest is the POST /v1/sessions/{id}/label body.
type sessionLabelRequest struct {
	// Target is the desired pattern, compact or NL notation.
	Target string `json:"target"`
	// PreviewRows controls before/after samples per operation (default 3,
	// 0 disables).
	PreviewRows *int `json:"preview_rows,omitempty"`
}

// sessionSourceJSON summarizes one source pattern of a labeled
// transformation: its index (the handle for repair), pattern, and how
// many ranked plans the repair endpoint can score.
type sessionSourceJSON struct {
	Index   int    `json:"index"`
	Pattern string `json:"pattern"`
	Plans   int    `json:"plans"`
}

type sessionLabelResponse struct {
	Ops     []opJSON            `json:"ops"`
	Sources []sessionSourceJSON `json:"sources"`
	Flagged []int               `json:"flagged,omitempty"`
	Clean   []int               `json:"clean,omitempty"`
	// Generation is the column generation this transformation covers; an
	// append bumps the session past it and repair/commit answer 409
	// until a re-label.
	Generation uint64 `json:"generation"`
}

// handleSessionLabel synthesizes (or re-synthesizes, after appends) the
// transformation to the target pattern and installs it as the session's
// current one.
func (s *server) handleSessionLabel(w http.ResponseWriter, r *http.Request) {
	defer func(t0 time.Time) { sessLabelDur.Observe(time.Since(t0)) }(time.Now())
	req, ok := decode[sessionLabelRequest](w, r)
	if !ok {
		return
	}
	if req.Target == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing target pattern"))
		return
	}
	target, err := clx.ParseAnyPattern(req.Target)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	h, release, ok := s.acquireSession(w, r)
	if !ok {
		return
	}
	defer release()
	tr, err := h.Session().Label(target)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	h.SetTransformation(tr)
	h.SetMeta(nil) // repairs recorded against a previous labeling are void
	previewRows := 3
	if req.PreviewRows != nil {
		previewRows = *req.PreviewRows
	}
	writeJSON(w, http.StatusOK, s.labelResponse(h, previewRows))
}

// labelResponse renders the session's current transformation. Caller
// holds the handle lock.
func (s *server) labelResponse(h *sessionstore.Handle, previewRows int) sessionLabelResponse {
	tr := h.Transformation()
	resp := sessionLabelResponse{Generation: tr.Generation()}
	for i, op := range tr.Replaces() {
		j := opJSON{
			NL:          op.NLRegex(),
			Regex:       op.Regex(),
			Replacement: op.Replacement,
			Source:      op.Source.String(),
		}
		if previewRows > 0 {
			for _, p := range tr.Preview(op, previewRows) {
				j.Preview = append(j.Preview, previewJSON{Input: p.Input, Output: p.Output})
			}
		}
		for _, alt := range tr.Alternatives(i) {
			j.Alternatives = append(j.Alternatives, alt.Replacement)
		}
		resp.Ops = append(resp.Ops, j)
	}
	// Only what the response returns is computed: each source's plan
	// count (scoring waits for GET .../repair) and the flagged rows
	// (the output column itself is never rendered).
	for i, src := range tr.Sources() {
		resp.Sources = append(resp.Sources, sessionSourceJSON{
			Index:   i,
			Pattern: src.String(),
			Plans:   tr.PlanCount(i),
		})
	}
	resp.Flagged = tr.Flagged()
	resp.Clean = tr.Clean()
	return resp
}

// currentTransformation fetches the session's transformation, writing
// the 409 envelope when there is none or it is stale. Caller holds the
// handle lock.
func currentTransformation(w http.ResponseWriter, h *sessionstore.Handle) (*clx.Transformation, bool) {
	tr := h.Transformation()
	if tr == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("session %s has no labeled transformation; POST label first", h.ID()))
		return nil, false
	}
	if tr.Stale() {
		writeError(w, http.StatusConflict,
			fmt.Errorf("transformation is stale: labeled at generation %d, session is at %d after appends; re-label",
				tr.Generation(), h.Session().Generation()))
		return nil, false
	}
	return tr, true
}

// repairCandidateJSON is one scored alternative plan.
type repairCandidateJSON struct {
	Source      int    `json:"source"`
	Alt         int    `json:"alt"`
	NL          string `json:"nl"`
	Regex       string `json:"regex"`
	Replacement string `json:"replacement"`
	// The quantitative objectives, in ranking order: rows the plan still
	// leaves flagged, op-level edit distance from the plan in effect, and
	// the paper's description length as tie-break. Score folds them into
	// one ascending scalar for display.
	Residual     int     `json:"residual"`
	EditDistance int     `json:"edit_distance"`
	DL           float64 `json:"dl"`
	Score        float64 `json:"score"`
	Selected     bool    `json:"selected"`
}

type repairCandidatesResponse struct {
	Source     int                   `json:"source"`
	Candidates []repairCandidateJSON `json:"candidates"`
}

func toCandidatesJSON(cands []clx.RepairCandidate) []repairCandidateJSON {
	out := make([]repairCandidateJSON, 0, len(cands))
	for _, c := range cands {
		out = append(out, repairCandidateJSON{
			Source:       c.Source,
			Alt:          c.Alt,
			NL:           c.Op.NLRegex(),
			Regex:        c.Op.Regex(),
			Replacement:  c.Op.Replacement,
			Residual:     c.Residual,
			EditDistance: c.EditDistance,
			DL:           c.DL,
			Score:        c.Score,
			Selected:     c.Selected,
		})
	}
	return out
}

// handleSessionRepairCandidates serves GET .../repair?source=N: the
// source's ranked plans scored best-first by (residual rows, edit
// distance, description length).
func (s *server) handleSessionRepairCandidates(w http.ResponseWriter, r *http.Request) {
	h, release, ok := s.acquireSession(w, r)
	if !ok {
		return
	}
	defer release()
	tr, ok := currentTransformation(w, h)
	if !ok {
		return
	}
	src, err := strconv.Atoi(r.URL.Query().Get("source"))
	if err != nil || src < 0 || src >= len(tr.Sources()) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("source %q out of range [0,%d)", r.URL.Query().Get("source"), len(tr.Sources())))
		return
	}
	writeJSON(w, http.StatusOK, repairCandidatesResponse{
		Source:     src,
		Candidates: toCandidatesJSON(tr.RepairCandidates(src)),
	})
}

// sessionRepairRequest is the POST .../repair body: either a ranked pick
// (source+alt, as scored by GET .../repair) or example feedback
// (input → expected output pairs, §6.4's user-provided examples).
type sessionRepairRequest struct {
	Source   *int              `json:"source,omitempty"`
	Alt      int               `json:"alt,omitempty"`
	Examples map[string]string `json:"examples,omitempty"`
	// PreviewRows as in label.
	PreviewRows *int `json:"preview_rows,omitempty"`
}

func (s *server) handleSessionRepair(w http.ResponseWriter, r *http.Request) {
	defer func(t0 time.Time) { sessRepairDur.Observe(time.Since(t0)) }(time.Now())
	req, ok := decode[sessionRepairRequest](w, r)
	if !ok {
		return
	}
	if req.Source == nil && len(req.Examples) == 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf(`missing repair: send {"source":i,"alt":j} or {"examples":{...}}`))
		return
	}
	h, release, ok := s.acquireSession(w, r)
	if !ok {
		return
	}
	defer release()
	tr, ok := currentTransformation(w, h)
	if !ok {
		return
	}
	if req.Source != nil {
		if err := tr.Repair(*req.Source, req.Alt); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// Ledger the pick so commit records it in the registry metadata.
		repairs, _ := h.Meta().([]progstore.Repair)
		h.SetMeta(append(repairs, progstore.Repair{Source: *req.Source, Alt: req.Alt}))
	}
	if len(req.Examples) > 0 {
		if err := tr.RepairWithExamples(req.Examples); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	sessRepairsTotal.Inc()
	s.sessionRepairs.Add(1)
	previewRows := 3
	if req.PreviewRows != nil {
		previewRows = *req.PreviewRows
	}
	writeJSON(w, http.StatusOK, s.labelResponse(h, previewRows))
}

// sessionCommitRequest is the POST .../commit body.
type sessionCommitRequest struct {
	// Name is an optional human label for the registry entry.
	Name string `json:"name,omitempty"`
	// ID re-registers an existing program, bumping its version.
	ID string `json:"id,omitempty"`
}

// handleSessionCommit exports the session's verified transformation and
// registers it durably; the response entry's id serves
// /v1/programs/{id}/apply with byte-identical output.
func (s *server) handleSessionCommit(w http.ResponseWriter, r *http.Request) {
	defer func(t0 time.Time) { sessCommitDur.Observe(time.Since(t0)) }(time.Now())
	req, ok := decode[sessionCommitRequest](w, r)
	if !ok {
		return
	}
	h, release, ok := s.acquireSession(w, r)
	if !ok {
		return
	}
	defer release()
	tr, ok := currentTransformation(w, h)
	if !ok {
		return
	}
	raw, err := tr.Export()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	repairs, _ := h.Meta().([]progstore.Repair)
	entry, err := s.store.Register(raw, progstore.Meta{
		ID:       req.ID,
		Name:     req.Name,
		RowCount: h.Session().ProfileStats().Rows,
		Repairs:  repairs,
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.flushReplication()
	sessCommitsTotal.Inc()
	s.sessionCommits.Add(1)
	resp := toEntryJSON(entry, true)
	resp.Flagged = tr.Unmatched()
	writeJSON(w, http.StatusCreated, resp)
}
