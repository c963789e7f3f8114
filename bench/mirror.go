// The in-process mirror of the clxd handlers. For every request it calls
// the same public functions, in the same order, as the handler it
// mirrors, each inside a span; the daemon's middleware, routing, network
// writes and anything a handler does that the mirror does not copy are
// left out, and show up as residual against the untraced run.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	clx "clx"
	"clx/internal/progstore"
	"clx/internal/sessionstore"
	"clx/internal/stream"
)

type mirror struct {
	store *progstore.Store
	ss    *sessionstore.Store
	rec   *recorder
	opts  clx.Options
	buf   bytes.Buffer

	// walls are the times spent inside each request, spans included
	// when on.
	walls []time.Duration
	// Counts the per-layer ratios need, gathered while tracing.
	profiles []clx.ProfileStats
	// labels are the traced labels' transformations; their source and
	// plan counts are taken after the replay, outside every timed span.
	labels            []*clx.Transformation
	checked, drifted  int
	compiled, lowered int
	// lastSources is the source count of the latest label.
	lastSources int
	// Paired measurements against a probe on the same rows: Store.Apply
	// minus Transform (drift), Store.Create minus NewSession, and
	// stream.Run beside Transform. main is the current request's
	// Store.Apply, stream.Run or Store.Create span.
	main                            time.Duration
	driftMS, createSelfMS           []float64
	streamNS, transformNS, pairRows int64
	// lastProgram is the program the last register or commit stored.
	lastProgram json.RawMessage
}

func newMirror(store *progstore.Store, rec *recorder) *mirror {
	opts := clx.DefaultOptions()
	opts.Workers = 1 // every spawned clxd runs with -workers 1
	return &mirror{store: store, ss: sessionstore.New(sessionstore.Config{}), rec: rec, opts: opts}
}

// Private copies of the daemon's wire shapes, so encode costs what the
// handler's encode costs.
type (
	registerReq struct {
		Rows    []string `json:"rows"`
		Target  string   `json:"target"`
		Repairs []struct {
			Source int `json:"source"`
			Alt    int `json:"alt"`
		} `json:"repairs,omitempty"`
		Name string `json:"name,omitempty"`
		ID   string `json:"id,omitempty"`
	}
	entryJSON struct {
		ID            string          `json:"id"`
		Version       int             `json:"version"`
		CreatedAtUnix int64           `json:"created_at_unix"`
		Name          string          `json:"name,omitempty"`
		Target        string          `json:"target"`
		Sources       []string        `json:"sources"`
		RowCount      int             `json:"row_count,omitempty"`
		Program       json.RawMessage `json:"program,omitempty"`
		Flagged       []int           `json:"flagged,omitempty"`
	}
	sessionJSON struct {
		ID             string    `json:"id"`
		Rows           int       `json:"rows"`
		DistinctValues int       `json:"distinct_values"`
		LeafPatterns   int       `json:"leaf_patterns"`
		Levels         int       `json:"levels"`
		Generation     uint64    `json:"generation"`
		Labeled        bool      `json:"labeled"`
		Stale          bool      `json:"stale,omitempty"`
		Created        time.Time `json:"created"`
		LastUsed       time.Time `json:"last_used"`
	}
	clusterJSON struct {
		Pattern string `json:"pattern"`
		NL      string `json:"nl"`
		Count   int    `json:"count"`
		Sample  string `json:"sample"`
		Rows    []int  `json:"rows,omitempty"`
	}
	previewJSON struct {
		Input  string `json:"input"`
		Output string `json:"output"`
	}
	opJSON struct {
		NL           string        `json:"nl"`
		Regex        string        `json:"regex"`
		Replacement  string        `json:"replacement"`
		Source       string        `json:"source"`
		Preview      []previewJSON `json:"preview,omitempty"`
		Alternatives []string      `json:"alternatives,omitempty"`
	}
	sourceJSON struct {
		Index   int    `json:"index"`
		Pattern string `json:"pattern"`
		Plans   int    `json:"plans"`
	}
	labelJSON struct {
		Ops        []opJSON     `json:"ops"`
		Sources    []sourceJSON `json:"sources"`
		Flagged    []int        `json:"flagged,omitempty"`
		Clean      []int        `json:"clean,omitempty"`
		Generation uint64       `json:"generation"`
	}
	candidateJSON struct {
		Source       int     `json:"source"`
		Alt          int     `json:"alt"`
		NL           string  `json:"nl"`
		Regex        string  `json:"regex"`
		Replacement  string  `json:"replacement"`
		Residual     int     `json:"residual"`
		EditDistance int     `json:"edit_distance"`
		DL           float64 `json:"dl"`
		Score        float64 `json:"score"`
		Selected     bool    `json:"selected"`
	}
	trailerJSON struct {
		Done        bool    `json:"done"`
		ID          string  `json:"id,omitempty"`
		Version     int     `json:"version,omitempty"`
		Rows        int64   `json:"rows"`
		Chunks      int64   `json:"chunks"`
		Flagged     int64   `json:"flagged"`
		FlaggedRows []int   `json:"flagged_rows,omitempty"`
		RowsPerSec  float64 `json:"rows_per_sec"`
	}
)

// streamFlaggedCap is the stream handler's cap on flagged indices in
// the trailer.
const streamFlaggedCap = 10000

func (m *mirror) decode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (m *mirror) encode(v any) {
	m.buf.Reset()
	enc := json.NewEncoder(&m.buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the wire shapes always encode
}

// run executes request req in-process. Probes run after the request so
// they never count toward its time.
func (m *mirror) run(o *op, req int) error {
	t0 := time.Now()
	root := m.rec.begin("request", req, len(o.rows), false)
	err := m.handle(o, req)
	m.rec.end(root)
	m.walls = append(m.walls, time.Since(t0))
	if err != nil {
		return fmt.Errorf("%s %s: %w", o.kind, o.path, err)
	}
	if !m.rec.on || !m.rec.probes {
		return nil
	}
	switch o.kind {
	case opApply, opStream:
		t := m.rec.probe("automaton.transform", req, len(o.rows), func() {
			sp, _, _ := m.store.Load(o.prog)
			sp.Workers = 1
			sp.Transform(o.rows)
		})
		if o.kind == opApply {
			m.driftMS = append(m.driftMS, ms(m.main-t))
		} else {
			m.pairStream(m.main, t, len(o.rows))
		}
	case opCreate:
		t := m.rec.probe("cluster.profile", req, len(o.rows), func() {
			m.profiled(clx.NewSession(o.rows, m.opts))
		})
		m.createSelfMS = append(m.createSelfMS, ms(m.main-t))
	}
	return nil
}

func (m *mirror) pairStream(streamed, transformed time.Duration, rows int) {
	m.streamNS += int64(streamed)
	m.transformNS += int64(transformed)
	m.pairRows += int64(rows)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (m *mirror) profiled(s *clx.Session) {
	if m.rec.on {
		m.profiles = append(m.profiles, s.ProfileStats())
	}
}

func (m *mirror) handle(o *op, req int) error {
	leaf := func(name string, rows int, f func()) time.Duration { return m.rec.do(name, req, rows, f) }
	var err error
	switch o.kind {
	case opApply:
		var in rowsBody
		leaf("daemon.json.decode", 0, func() { err = m.decode(o.body, &in) })
		if err != nil {
			return err
		}
		var res *progstore.ApplyResult
		m.main = leaf("progstore.apply", len(in.Rows), func() { res, err = m.store.Apply(o.prog, in.Rows, m.opts.Workers) })
		if err != nil {
			return err
		}
		if m.rec.on {
			m.checked += res.Drift.Checked
			m.drifted += res.Drift.Drifted
		}
		leaf("daemon.json.encode", 0, func() { m.encode(res) })

	case opStream:
		var sp *clx.SavedProgram
		var version int
		leaf("progstore.load", 0, func() { sp, version, err = m.store.Load(o.prog) })
		if err != nil {
			return err
		}
		tr := trailerJSON{ID: o.prog, Version: version}
		var st stream.Stats
		m.main = leaf("stream.run", len(o.rows), func() {
			st, err = stream.Run(sp, stream.NewLineReader(bytes.NewReader(o.body)), stream.NDJSONEncoder{},
				io.Discard, stream.Options{Workers: m.opts.Workers,
					OnFlagged: func(row int) {
						if len(tr.FlaggedRows) < streamFlaggedCap {
							tr.FlaggedRows = append(tr.FlaggedRows, row)
						}
					}})
		})
		if err != nil {
			return err
		}
		tr.Done, tr.Rows, tr.Chunks, tr.Flagged, tr.RowsPerSec = true, st.Rows, st.Chunks, st.Flagged, st.RowsPerSec
		leaf("daemon.json.encode", 0, func() { m.encode(tr) })

	case opRegister:
		var in registerReq
		leaf("daemon.json.decode", 0, func() { err = m.decode(o.body, &in) })
		if err != nil {
			return err
		}
		var target clx.Pattern
		leaf("clx.parse_pattern", 0, func() { target, err = clx.ParseAnyPattern(in.Target) })
		if err != nil {
			return err
		}
		var sess *clx.Session
		leaf("cluster.profile", len(in.Rows), func() { sess = clx.NewSession(in.Rows, m.opts) })
		m.profiled(sess)
		var tr *clx.Transformation
		leaf("synth.label", 0, func() { tr, err = sess.Label(target) })
		if err != nil {
			return err
		}
		m.labeled(tr)
		return m.commit(leaf, tr, in.ID, len(in.Rows))

	case opCreate:
		var in rowsBody
		leaf("daemon.json.decode", 0, func() { err = m.decode(o.body, &in) })
		if err != nil {
			return err
		}
		m.main = leaf("sessionstore.create", len(in.Rows), func() { _, err = m.ss.Create(o.sess, in.Rows, m.opts) })
		if err != nil {
			return err
		}
		return m.withSession(leaf, o.sess, func(h *sessionstore.Handle) {
			leaf("daemon.json.encode", 0, func() { m.encode(sessionJSONOf(h)) })
		})

	case opClusters:
		return m.withSession(leaf, o.sess, func(h *sessionstore.Handle) {
			var out []clusterJSON
			leaf("clx.clusters", 0, func() {
				for _, c := range h.Session().Clusters() {
					out = append(out, clusterJSON{Pattern: c.Pattern.String(), NL: c.Pattern.NLRegex(),
						Count: c.Count, Sample: c.Sample, Rows: c.Rows})
				}
			})
			leaf("daemon.json.encode", 0, func() {
				m.encode(struct {
					Clusters []clusterJSON `json:"clusters"`
				}{out})
			})
		})

	case opAppend:
		var in rowsBody
		leaf("daemon.json.decode", 0, func() { err = m.decode(o.body, &in) })
		if err != nil {
			return err
		}
		return m.withSession(leaf, o.sess, func(h *sessionstore.Handle) {
			leaf("cluster.append", len(in.Rows), func() { h.Session().AppendAndReprofile(in.Rows) })
			leaf("daemon.json.encode", 0, func() { m.encode(sessionJSONOf(h)) })
		})

	case opLabel:
		var in struct {
			Target string `json:"target"`
		}
		leaf("daemon.json.decode", 0, func() { err = m.decode(o.body, &in) })
		if err != nil {
			return err
		}
		var target clx.Pattern
		leaf("clx.parse_pattern", 0, func() { target, err = clx.ParseAnyPattern(in.Target) })
		if err != nil {
			return err
		}
		var lerr error
		err = m.withSession(leaf, o.sess, func(h *sessionstore.Handle) {
			var tr *clx.Transformation
			leaf("synth.label", 0, func() { tr, lerr = h.Session().Label(target) })
			if lerr != nil {
				return
			}
			h.SetTransformation(tr)
			h.SetMeta(nil)
			m.labeled(tr)
			m.labelResponse(leaf, h)
		})
		if err == nil {
			err = lerr
		}
		return err

	case opRepair:
		return m.withSession(leaf, o.sess, func(h *sessionstore.Handle) {
			tr := h.Transformation()
			var out []candidateJSON
			leaf("clx.repair_candidates", 0, func() {
				for _, c := range tr.RepairCandidates(0) {
					out = append(out, candidateJSON{Source: c.Source, Alt: c.Alt, NL: c.Op.NLRegex(),
						Regex: c.Op.Regex(), Replacement: c.Op.Replacement, Residual: c.Residual,
						EditDistance: c.EditDistance, DL: c.DL, Score: c.Score, Selected: c.Selected})
				}
			})
			leaf("daemon.json.encode", 0, func() {
				m.encode(struct {
					Source     int             `json:"source"`
					Candidates []candidateJSON `json:"candidates"`
				}{0, out})
			})
		})

	case opCommit:
		var in struct {
			ID string `json:"id"`
		}
		leaf("daemon.json.decode", 0, func() { err = m.decode(o.body, &in) })
		if err != nil {
			return err
		}
		var cerr error
		err = m.withSession(leaf, o.sess, func(h *sessionstore.Handle) {
			cerr = m.commit(leaf, h.Transformation(), in.ID, h.Session().ProfileStats().Rows)
		})
		if err == nil {
			err = cerr
		}
		return err

	case opDelete:
		leaf("sessionstore.delete", 0, func() {
			if !m.ss.Delete(o.sess) {
				err = fmt.Errorf("session %s not found", o.sess)
			}
		})
		if err != nil {
			return err
		}
		leaf("daemon.json.encode", 0, func() { m.encode(map[string]string{"deleted": o.sess}) })
	}
	return nil
}

// withSession mirrors the handlers' Acquire … release bracket.
func (m *mirror) withSession(leaf func(string, int, func()) time.Duration, id string, f func(h *sessionstore.Handle)) error {
	var (
		h       *sessionstore.Handle
		release func()
		err     error
	)
	leaf("sessionstore.acquire", 0, func() { h, release, err = m.ss.Acquire(id) })
	if err != nil {
		return fmt.Errorf("session %s: %w", id, err)
	}
	defer release()
	f(h)
	return nil
}

// commit is the register/commit tail: export, register durably, encode
// the entry with the synthesis column's unmatched rows.
func (m *mirror) commit(leaf func(string, int, func()) time.Duration, tr *clx.Transformation, id string, rows int) error {
	var (
		raw   []byte
		entry progstore.Entry
		err   error
	)
	leaf("clx.export", 0, func() { raw, err = tr.Export() })
	if err != nil {
		return err
	}
	leaf("progstore.register", 0, func() {
		entry, err = m.store.Register(raw, progstore.Meta{ID: id, RowCount: rows})
	})
	if err != nil {
		return err
	}
	m.lastProgram = entry.Program
	leaf("daemon.json.encode", 0, func() {
		m.encode(entryJSON{ID: entry.ID, Version: entry.Version, CreatedAtUnix: entry.CreatedAtUnix,
			Name: entry.Name, Target: entry.Target, Sources: entry.Sources, RowCount: entry.RowCount,
			Program: entry.Program, Flagged: tr.Unmatched()})
	})
	return nil
}

// labelResponse mirrors the label handler's response: the Replace
// operations with previews and alternatives, every source's scored
// repair candidates, and the flagged rows of a full Run.
func (m *mirror) labelResponse(leaf func(string, int, func()) time.Duration, h *sessionstore.Handle) {
	tr := h.Transformation()
	resp := labelJSON{Generation: tr.Generation()}
	leaf("clx.explain", 0, func() {
		rows := h.Session().Data()
		for i, op := range tr.Replaces() {
			j := opJSON{NL: op.NLRegex(), Regex: op.Regex(), Replacement: op.Replacement, Source: op.Source.String()}
			for _, p := range op.Preview(rows, 3) {
				j.Preview = append(j.Preview, previewJSON{Input: p.Input, Output: p.Output})
			}
			for _, alt := range tr.Alternatives(i) {
				j.Alternatives = append(j.Alternatives, alt.Replacement)
			}
			resp.Ops = append(resp.Ops, j)
		}
	})
	leaf("clx.repair_candidates", 0, func() {
		for i, src := range tr.Sources() {
			resp.Sources = append(resp.Sources, sourceJSON{Index: i, Pattern: src.String(),
				Plans: len(tr.RepairCandidates(i))})
		}
	})
	leaf("unifi.run", h.Session().ProfileStats().Rows, func() {
		_, resp.Flagged = tr.Run()
		resp.Clean = tr.Clean()
	})
	leaf("daemon.json.encode", 0, func() { m.encode(resp) })
}

func (m *mirror) labeled(tr *clx.Transformation) {
	m.lastSources = len(tr.Sources())
	if m.rec.on {
		m.labels = append(m.labels, tr)
	}
}

func sessionJSONOf(h *sessionstore.Handle) sessionJSON {
	sess := h.Session()
	st := sess.ProfileStats()
	j := sessionJSON{ID: h.ID(), Rows: st.Rows, DistinctValues: st.DistinctValues,
		LeafPatterns: st.LeafPatterns, Levels: sess.Levels(), Generation: sess.Generation(),
		Created: h.CreatedAt(), LastUsed: h.LastUsed()}
	if tr := h.Transformation(); tr != nil {
		j.Labeled, j.Stale = true, tr.Stale()
	}
	return j
}
