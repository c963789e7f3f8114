// JSON request/response types and handlers for the clxd API.
package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"

	clx "clx"
	"clx/tables"
)

// clusterRequest is the POST /v1/cluster body.
type clusterRequest struct {
	// Rows is the string column to profile.
	Rows []string `json:"rows"`
	// Levels includes the full pattern hierarchy in the response.
	Levels bool `json:"levels,omitempty"`
}

// clusterJSON is one pattern cluster.
type clusterJSON struct {
	// Pattern is the compact notation, NL the display regexp.
	Pattern string `json:"pattern"`
	NL      string `json:"nl"`
	Count   int    `json:"count"`
	Sample  string `json:"sample"`
	Rows    []int  `json:"rows,omitempty"`
}

type clusterResponse struct {
	Clusters []clusterJSON   `json:"clusters"`
	Levels   [][]clusterJSON `json:"levels,omitempty"`
}

func (s *server) handleCluster(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[clusterRequest](w, r)
	if !ok {
		return
	}
	sess := clx.NewSession(req.Rows, s.opts)
	resp := clusterResponse{Clusters: toClusterJSON(sess.Clusters(), true)}
	if req.Levels {
		for l := 0; l < sess.Levels(); l++ {
			resp.Levels = append(resp.Levels, toClusterJSON(sess.Level(l), false))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func toClusterJSON(cs []clx.Cluster, withRows bool) []clusterJSON {
	out := make([]clusterJSON, 0, len(cs))
	for _, c := range cs {
		j := clusterJSON{
			Pattern: c.Pattern.String(),
			NL:      c.Pattern.NLRegex(),
			Count:   c.Count,
			Sample:  c.Sample,
		}
		if withRows {
			j.Rows = c.Rows
		}
		out = append(out, j)
	}
	return out
}

// repairJSON selects alternative Alt for source Source.
type repairJSON struct {
	Source int `json:"source"`
	Alt    int `json:"alt"`
}

// transformRequest is the POST /v1/transform body.
type transformRequest struct {
	Rows []string `json:"rows"`
	// Target is the desired pattern, compact or NL notation.
	Target string `json:"target"`
	// Repairs selects ranked alternatives before applying (§6.4).
	Repairs []repairJSON `json:"repairs,omitempty"`
	// PreviewRows controls how many before/after samples each operation
	// carries (default 3, 0 disables).
	PreviewRows *int `json:"preview_rows,omitempty"`
}

// opJSON is one Replace operation with its verification aids.
type opJSON struct {
	// NL and Regex render the match pattern; Replacement is the template.
	NL          string `json:"nl"`
	Regex       string `json:"regex"`
	Replacement string `json:"replacement"`
	// Source is the matched pattern in compact notation.
	Source string `json:"source"`
	// Preview holds before/after samples from the submitted rows.
	Preview []previewJSON `json:"preview,omitempty"`
	// Alternatives are the ranked replacement templates (index 0 is in
	// effect; repair by resubmitting with {"source":i,"alt":j}).
	Alternatives []string `json:"alternatives,omitempty"`
}

type previewJSON struct {
	Input  string `json:"input"`
	Output string `json:"output"`
}

type transformResponse struct {
	Ops     []opJSON `json:"ops"`
	Output  []string `json:"output"`
	Flagged []int    `json:"flagged,omitempty"`
	Clean   []int    `json:"clean,omitempty"`
	// Program is the exported verified program, ready for /v1/apply.
	Program json.RawMessage `json:"program"`
}

// tableJSON is the wire form of a table.
type tableJSON struct {
	Name    string     `json:"name,omitempty"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// unifyRequest is the POST /v1/tables/unify body: convert every table into
// the format of Tables[Target].
type unifyRequest struct {
	Tables []tableJSON `json:"tables"`
	Target int         `json:"target"`
}

type unifyResponse struct {
	Tables []tableJSON `json:"tables"`
	// Mappings describe, per table, how its columns were aligned
	// ("src -> dst (transformed)").
	Mappings [][]string `json:"mappings"`
}

func (s *server) handleUnify(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[unifyRequest](w, r)
	if !ok {
		return
	}
	ts := make([]tables.Table, len(req.Tables))
	for i, tj := range req.Tables {
		ts[i] = tables.Table{Name: tj.Name, Headers: tj.Headers, Rows: tj.Rows}
		if err := ts[i].Validate(); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	unified, maps, err := tables.Unify(ts, req.Target)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := unifyResponse{}
	for i, t := range unified {
		resp.Tables = append(resp.Tables, tableJSON{Name: t.Name, Headers: t.Headers, Rows: t.Rows})
		var desc []string
		for _, cm := range maps[i].Columns {
			d := fmt.Sprintf("%s -> %s", ts[i].Headers[cm.Src], unified[i].Headers[cm.Dst])
			if cm.Transform != nil {
				d += " (transformed)"
			}
			desc = append(desc, d)
		}
		resp.Mappings = append(resp.Mappings, desc)
	}
	writeJSON(w, http.StatusOK, resp)
}

// applyRequest is the POST /v1/apply body: run a previously exported
// program (the "program" field is the JSON produced by Export / the
// transform response's "program") over new rows.
type applyRequest struct {
	Rows    []string        `json:"rows"`
	Program json.RawMessage `json:"program"`
}

type applyResponse struct {
	Output  []string `json:"output"`
	Flagged []int    `json:"flagged,omitempty"`
}

func (s *server) handleApply(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[applyRequest](w, r)
	if !ok {
		return
	}
	sp, err := clx.LoadProgram(req.Program)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sp.Workers = s.opts.Workers
	out, flagged := sp.Transform(req.Rows)
	writeJSON(w, http.StatusOK, applyResponse{Output: out, Flagged: flagged})
}

func (s *server) handleTransform(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[transformRequest](w, r)
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
	sess := clx.NewSession(req.Rows, s.opts)
	tr, err := sess.Label(target)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	for _, rep := range req.Repairs {
		if err := tr.Repair(rep.Source, rep.Alt); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	previewRows := 3
	if req.PreviewRows != nil {
		previewRows = *req.PreviewRows
	}
	resp := transformResponse{}
	for _, op := range tr.Replaces() {
		j := opJSON{
			NL:          op.NLRegex(),
			Regex:       op.Regex(),
			Replacement: op.Replacement,
			Source:      op.Source.String(),
		}
		if previewRows > 0 {
			for _, p := range op.Preview(req.Rows, previewRows) {
				j.Preview = append(j.Preview, previewJSON{Input: p.Input, Output: p.Output})
			}
		}
		for _, alt := range tr.Alternatives(op.SourceIndex) {
			j.Alternatives = append(j.Alternatives, alt.Replacement)
		}
		resp.Ops = append(resp.Ops, j)
	}
	resp.Output, resp.Flagged = tr.Run()
	resp.Clean = tr.Clean()
	if raw, err := tr.Export(); err == nil {
		resp.Program = raw
	}
	writeJSON(w, http.StatusOK, resp)
}
