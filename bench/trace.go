// The span recorder behind the traced replay. Spans are recorded by the
// benchmark around its calls into each layer's public function — never
// inside the program — kept in memory, and written out at the end as
// Chrome trace-event JSON.
package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"
)

// span is one timed call. req is the index of the replayed request it
// belongs to, -1 for set-up work. A probe is a call the handler does not
// make — Transform beside Store.Apply, NewSession beside Store.Create —
// run after the request and left out of every sum.
type span struct {
	name       string
	req        int
	parent     int32
	probe      bool
	start, end time.Duration
	allocs     uint64
	rows       int
}

func (s *span) dur() time.Duration { return s.end - s.start }

// allocSpans are the layers whose allocation counts are reported; reading
// runtime/metrics costs about a microsecond, so other spans skip it.
var allocSpans = map[string]bool{
	"cluster.profile": true, "automaton.transform": true, "stream.run": true,
}

type recorder struct {
	on bool
	// probes runs probe calls (only when on). Probes leave garbage and
	// cold caches behind, so the replays that time the trace overhead and
	// the residuals run without them.
	probes bool
	epoch  time.Time
	spans  []span
	open   []int32
	ms     []metrics.Sample
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, probes: on, epoch: time.Now(),
		ms: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (r *recorder) heapAllocs() uint64 {
	metrics.Read(r.ms)
	return r.ms[0].Value.Uint64()
}

func (r *recorder) begin(name string, req, rows int, probe bool) int32 {
	if !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	var a uint64
	if allocSpans[name] {
		a = r.heapAllocs()
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, req: req, parent: parent, probe: probe,
		allocs: a, rows: rows, start: time.Since(r.epoch)})
	r.open = append(r.open, i)
	return i
}

// end closes span i and returns its duration (0 when off).
func (r *recorder) end(i int32) time.Duration {
	if i < 0 {
		return 0
	}
	s := &r.spans[i]
	s.end = time.Since(r.epoch)
	if allocSpans[s.name] {
		s.allocs = r.heapAllocs() - s.allocs
	}
	r.open = r.open[:len(r.open)-1]
	return s.dur()
}

// do runs f inside a span and returns the span's duration (0 when off).
func (r *recorder) do(name string, req, rows int, f func()) time.Duration {
	i := r.begin(name, req, rows, false)
	f()
	return r.end(i)
}

// probe runs f inside a probe span; without probes it does not run f.
func (r *recorder) probe(name string, req, rows int, f func()) time.Duration {
	if !r.on || !r.probes {
		return 0
	}
	i := r.begin(name, req, rows, true)
	f()
	return r.end(i)
}

// selfTimes returns each span's duration minus the time its children
// cover. Children of one parent never overlap: the replay is sequential.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] += spans[i].dur()
		if p := spans[i].parent; p >= 0 {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// writeChromeTrace writes span sets as trace-event JSON (chrome://tracing,
// Perfetto): one process per set, one complete event per span, the
// request index in args.
func writeChromeTrace(path string, sets [][]span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var evs []event
	for pid, spans := range sets {
		for _, s := range spans {
			evs = append(evs, event{Name: s.name, Ph: "X", PID: pid + 1, TID: 1,
				TS:   float64(s.start) / float64(time.Microsecond),
				Dur:  float64(s.dur()) / float64(time.Microsecond),
				Args: map[string]any{"req": s.req, "probe": s.probe, "rows": s.rows, "allocs": s.allocs}})
		}
	}
	raw, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
