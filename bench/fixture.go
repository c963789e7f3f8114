// The fixture: a program registry every workload's SUT starts from. It is
// built through the library before any timing starts, by running the
// interactive loop once in-process over the phone column and every suite
// task, exactly as the wrangle workload drives it over HTTP, and then
// checked: every program's streamed output must equal its buffered
// Transform output.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"clx/internal/progstore"
	"clx/internal/stream"
)

// fixtureSeed draws the fixture's phone column. The fixture does not
// depend on the run's seed, so every run starts from the same registry.
const fixtureSeed = 72

type fixture struct {
	dir string
	// ids are the program ids: "phone" first (the most popular program
	// of the serve workloads), then the suite tasks in suite order.
	ids      []string
	cols     map[string]*column
	programs map[string][]byte // compacted exported program
	warmup   map[string][]byte // a small apply body per program
	// built is the mirror that built the fixture; with tracing on its
	// spans and counts are the set-up share of the per-layer metrics.
	built *mirror
}

func buildFixture(cfg *config, rec *recorder, dir string) (*fixture, error) {
	st, err := progstore.Open(dir)
	if err != nil {
		return nil, err
	}
	m := newMirror(st, rec)
	cols := append([]*column{phoneColumn(cfg.sizes.phoneRows, cfg.sizes.appendRows, fixtureSeed)}, suiteColumns()...)
	fx := &fixture{dir: dir, cols: map[string]*column{}, programs: map[string][]byte{}, warmup: map[string][]byte{}}
	for i, col := range cols {
		sess := fmt.Sprintf("fixture-%d", i)
		for _, o := range sessionOps(col, sess, classNone) {
			if o.kind == opCommit && col.sources > 0 {
				repair := &op{kind: opRepair, sess: sess, path: "/v1/sessions/" + sess + "/repair?source=0"}
				if err := m.run(repair, -1); err != nil {
					st.Close()
					return nil, fmt.Errorf("fixture %s: %w", col.id, err)
				}
			}
			if err := m.run(o, -1); err != nil {
				st.Close()
				return nil, fmt.Errorf("fixture %s: %w", col.id, err)
			}
			switch o.kind {
			case opLabel:
				col.sources = m.lastSources
			case opCommit:
				fx.programs[col.id] = compactJSON(m.lastProgram)
			}
		}
		fx.ids = append(fx.ids, col.id)
		fx.cols[col.id] = col
		fx.warmup[col.id] = applyOp(col.id, col.rows[:min(3, len(col.rows))]).body
		if err := m.checkStream(col); err != nil {
			st.Close()
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	fx.built = m
	return fx, nil
}

// checkStream runs col's program over its rows through the streaming
// engine and through Transform and demands identical bytes.
func (m *mirror) checkStream(col *column) error {
	sp, _, err := m.store.Load(col.id)
	if err != nil {
		return err
	}
	sp.Workers = 1
	var out []string
	i := m.rec.begin("automaton.transform", -1, len(col.rows), true)
	out, _ = sp.Transform(col.rows)
	transformed := m.rec.end(i)
	var want []byte
	for _, v := range out {
		want = stream.NDJSONEncoder{}.AppendValue(want, []byte(v))
	}
	var got bytes.Buffer
	i = m.rec.begin("stream.run", -1, len(col.rows), true)
	_, err = stream.Run(sp, stream.NewLineReader(bytes.NewReader(streamOp(col.id, col.rows).body)),
		stream.NDJSONEncoder{}, &got, stream.Options{Workers: 1})
	m.pairStream(m.rec.end(i), transformed, len(col.rows))
	if err != nil {
		return fmt.Errorf("fixture %s: stream: %w", col.id, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("fixture %s: streamed output differs from Transform", col.id)
	}
	return nil
}

func compactJSON(raw []byte) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return raw
	}
	return b.Bytes()
}
