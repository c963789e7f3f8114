// The output oracle: after the timed phases, every kept response is
// checked against the in-process library. Applies and streams must equal
// LoadProgram(GET /v1/programs/{id}).Transform(rows) — in wrangle, the
// library's own export of the session's column — and registers and
// commits must carry the compacted Export() of the same rows and target.
package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"slices"

	clx "clx"
	"clx/internal/stream"
)

type oracle struct {
	base string
	fx   *fixture
	opts clx.Options

	served  map[string]*clx.SavedProgram
	exports map[*column][]byte
	applied map[*op]applyWant
	streams map[*op]streamWant
	regs    map[*op][]byte

	failed, mismatches int
	firstErr           string
}

type applyWant struct {
	out     []string
	flagged []int
}

type streamWant struct {
	crc             uint32
	frames, flagged int
}

func newOracle(base string, fx *fixture) *oracle {
	opts := clx.DefaultOptions()
	opts.Workers = 1
	return &oracle{base: base, fx: fx, opts: opts, served: map[string]*clx.SavedProgram{},
		exports: map[*column][]byte{}, applied: map[*op]applyWant{}, streams: map[*op]streamWant{},
		regs: map[*op][]byte{}}
}

func (v *oracle) note(mismatch bool, format string, args ...any) {
	if mismatch {
		v.mismatches++
	}
	v.failed++
	if v.firstErr == "" {
		v.firstErr = fmt.Sprintf(format, args...)
	}
}

// check counts each failed or wrong request once.
func (v *oracle) check(ops []*op, samples []sample) error {
	for i := range samples {
		s := &samples[i]
		o := ops[s.op]
		if !s.ok(o) {
			v.note(false, "%s %s: status %d %s %.200s", o.method, o.path, s.status, s.err, s.body)
			continue
		}
		bad, err := v.wrong(o, s)
		if err != nil {
			return err
		}
		if bad != "" {
			v.note(true, "%s %s: %s", o.method, o.path, bad)
		}
	}
	return nil
}

// wrong returns why s's response is wrong, or "" when it is right or not
// kept. The error reports a failure of the oracle itself.
func (v *oracle) wrong(o *op, s *sample) (string, error) {
	switch o.kind {
	case opStream:
		var tr struct {
			Done    bool   `json:"done"`
			Error   string `json:"error"`
			Rows    int    `json:"rows"`
			Flagged int    `json:"flagged"`
		}
		if err := json.Unmarshal(s.trailer, &tr); err != nil || !tr.Done {
			return fmt.Sprintf("stream without its done trailer (%s)", tr.Error), nil
		}
		want, err := v.streamWant(o)
		if err != nil {
			return "", err
		}
		if s.crc != want.crc || s.frames != want.frames || tr.Rows != want.frames || tr.Flagged != want.flagged {
			return fmt.Sprintf("streamed %d rows (%d flagged) differ from Transform's %d (%d flagged)",
				s.frames, tr.Flagged, want.frames, want.flagged), nil
		}
	case opApply:
		if s.body == nil {
			return "", nil
		}
		var got struct {
			Output  []string `json:"output"`
			Flagged []int    `json:"flagged"`
		}
		if err := json.Unmarshal(s.body, &got); err != nil {
			return "undecodable apply response", nil
		}
		want, err := v.applyWant(o)
		if err != nil {
			return "", err
		}
		if !slices.Equal(got.Output, want.out) || !slices.Equal(got.Flagged, want.flagged) {
			return "output differs from Transform", nil
		}
	case opRegister, opCommit:
		if s.body == nil {
			return "", nil
		}
		var got struct {
			Program json.RawMessage `json:"program"`
		}
		if err := json.Unmarshal(s.body, &got); err != nil {
			return "undecodable registry entry", nil
		}
		want, err := v.exportFor(o)
		if err != nil {
			return "", err
		}
		if string(compactJSON(got.Program)) != string(want) {
			return "registered program differs from the library's Export()", nil
		}
	}
	return "", nil
}

// program is the program whose output o must match: in a session, the
// library's export of the session's column; otherwise the program the
// SUT serves under o.prog.
func (v *oracle) program(o *op) (*clx.SavedProgram, error) {
	if o.col != nil {
		raw, err := v.export(o.col)
		if err != nil {
			return nil, err
		}
		sp, err := clx.LoadProgram(raw)
		if err != nil {
			return nil, err
		}
		sp.Workers = 1
		return sp, nil
	}
	if sp, ok := v.served[o.prog]; ok {
		return sp, nil
	}
	resp, err := probeClient.Get(v.base + "/v1/programs/" + o.prog)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET program %s: status %d", o.prog, resp.StatusCode)
	}
	var e struct {
		Program json.RawMessage `json:"program"`
	}
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, err
	}
	if want, ok := v.fx.programs[o.prog]; ok && string(compactJSON(e.Program)) != string(want) {
		v.note(true, "served program %s differs from the fixture", o.prog)
	}
	sp, err := clx.LoadProgram(e.Program)
	if err != nil {
		return nil, err
	}
	sp.Workers = 1
	v.served[o.prog] = sp
	return sp, nil
}

func (v *oracle) applyWant(o *op) (applyWant, error) {
	if w, ok := v.applied[o]; ok {
		return w, nil
	}
	sp, err := v.program(o)
	if err != nil {
		return applyWant{}, err
	}
	out, flagged := sp.Transform(o.rows)
	w := applyWant{out, flagged}
	v.applied[o] = w
	return w, nil
}

func (v *oracle) streamWant(o *op) (streamWant, error) {
	if w, ok := v.streams[o]; ok {
		return w, nil
	}
	a, err := v.applyWant(o)
	if err != nil {
		return streamWant{}, err
	}
	w := streamWant{frames: len(a.out), flagged: len(a.flagged)}
	var buf []byte
	for _, s := range a.out {
		buf = stream.NDJSONEncoder{}.AppendValue(buf[:0], []byte(s))
		w.crc = crc32.Update(w.crc, crcTable, buf)
	}
	v.streams[o] = w
	v.applied[o] = applyWant{} // the rows are no longer needed
	return w, nil
}

// exportFor is the compacted library export a register or commit must
// return.
func (v *oracle) exportFor(o *op) ([]byte, error) {
	if o.col != nil {
		return v.export(o.col)
	}
	if w, ok := v.regs[o]; ok {
		return w, nil
	}
	w, err := v.libraryExport(o.rows, nil, o.target)
	v.regs[o] = w
	return w, err
}

func (v *oracle) export(col *column) ([]byte, error) {
	if w, ok := v.exports[col]; ok {
		return w, nil
	}
	w, err := v.libraryExport(col.rows, col.extra, col.target)
	v.exports[col] = w
	return w, err
}

func (v *oracle) libraryExport(rows, extra []string, target string) ([]byte, error) {
	p, err := clx.ParseAnyPattern(target)
	if err != nil {
		return nil, err
	}
	sess := clx.NewSession(rows, v.opts)
	if len(extra) > 0 {
		sess.AppendAndReprofile(extra)
	}
	tr, err := sess.Label(p)
	if err != nil {
		return nil, err
	}
	raw, err := tr.Export()
	if err != nil {
		return nil, err
	}
	return compactJSON(raw), nil
}
