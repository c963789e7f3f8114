// Package obs is the daemon's observability core: metric registries
// (atomic counters, gauges, fixed-bucket latency histograms) with two
// renderings — Prometheus text for GET /metrics and a flat key → value
// map clxd nests into GET /v1/stats — plus request-ID tracing over
// context and a structured request logger. Every hot path in the system —
// the profile/synthesize/transform pipeline, the streaming bulk-apply
// engine, the compiled-matcher cache, the registry WAL — reports here.
//
// The package is deliberately dependency-free (stdlib only): the paper's
// verifiability claim extends to operations — an operator must be able to
// audit exactly what a metric means by reading this one file — and the
// repo's build contract forbids new modules. The exporter emits the
// Prometheus text exposition format, which every scraper in that ecosystem
// already speaks, so no client library is needed on either side.
//
// Process-wide series register once, at package init of the instrumented
// package, in Default (NewCounter et al. return the existing metric on
// re-registration, so re-wiring in tests is safe). A fact that belongs to
// one instance — a daemon server's admission ledger, a session store's
// lifecycle counters — registers in a Registry that instance owns. A
// metric that appears in /v1/stats declares its key there, next to its
// name, so both documents read the same counter. Updates are single
// atomic operations; a histogram observation is one atomic add on the
// matched bucket plus two for count and sum. SetEnabled(false) freezes
// counters and histograms in every registry — the switch the overhead
// benchmark (BenchmarkObsOverhead) uses to measure the instrumented hot
// path against the uninstrumented one in the same binary. Gauges stay
// live even when disabled: they track level state (a high-water mark,
// slots held) that must not drift.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates counter and histogram mutation. Default on; the overhead
// benchmark flips it to measure the uninstrumented baseline.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns counter/histogram recording on or off, returning the
// previous state. Off is strictly a measurement mode for overhead
// benchmarks: counters stop accumulating, so operational invariants (cache
// conservation, stream totals) hold only across windows where recording
// stayed on.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// Enabled reports whether recording is on.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonic event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (no-op while recording is disabled).
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter. Tests and benchmarks only — a live counter is
// monotonic by contract.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a value that goes up and down (in-flight requests, high-water
// marks). Gauge mutation ignores SetEnabled: gauges pair acquires with
// releases, and dropping one side would wedge the value.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Max raises the gauge to n if n is larger (high-water marks).
func (g *Gauge) Max(n int64) {
	for {
		p := g.v.Load()
		if n <= p || g.v.CompareAndSwap(p, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Reset zeroes the gauge (tests and benchmarks).
func (g *Gauge) Reset() { g.v.Store(0) }

// DefBuckets are the default latency histogram bounds, in seconds: 100µs
// to 10s in a coarse 1-2.5-5 progression. They cover everything the system
// times — sub-millisecond chunk applies, tens-of-milliseconds profiles,
// multi-second bulk streams — in 14 buckets, so a histogram costs 17
// atomics of memory and its text exposition stays short.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Buckets are cumulative
// only at export time; an observation touches exactly one bucket counter.
type Histogram struct {
	bounds []float64 // upper bounds in seconds, ascending
	counts []atomic.Int64
	inf    atomic.Int64
	count  atomic.Int64
	sumNS  atomic.Int64
}

// Observe records one duration (no-op while recording is disabled).
func (h *Histogram) Observe(d time.Duration) {
	if !enabled.Load() {
		return
	}
	s := d.Seconds()
	// Linear scan: bounds are few and the common case lands early.
	placed := false
	for i, b := range h.bounds {
		if s <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// Reset zeroes the histogram (tests and benchmarks).
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.inf.Store(0)
	h.count.Store(0)
	h.sumNS.Store(0)
}

// metric is one registered series: a kind, a rendered label set, its
// /v1/stats key, and the value the exporters read.
type metric struct {
	labels string // rendered `k="v",...` or ""
	stat   string // /v1/stats key "section.field", or "" (Prometheus only)
	c      *Counter
	g      *Gauge
	fn     func() int64 // a gauge computed when read
	h      *Histogram
}

// value is the series' current count or level (counters and gauges).
func (m *metric) value() int64 {
	switch {
	case m.c != nil:
		return m.c.Value()
	case m.fn != nil:
		return m.fn()
	case m.g != nil:
		return m.g.Value()
	}
	return 0
}

// family groups series sharing a metric name; HELP/TYPE are emitted once
// per family. A family with an empty name is a /v1/stats-only value and
// is never rendered in Prometheus text.
type family struct {
	name, help, kind string
	series           []*metric
	byLabels         map[string]*metric
}

// Registry is a set of metric families rendered together, in Prometheus
// text (WritePrometheus) and as the flat key → value map behind clxd's
// GET /v1/stats (Stats). Default holds the process-wide series; an owner
// whose facts are its own — one daemon server's admission ledger, one
// session store's lifecycle counters — keeps its own Registry, so two
// instances in one process never sum into each other. The zero value is
// an empty registry ready for use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// Default is the process-wide registry NewCounter, NewGauge and
// NewHistogram register into.
var Default = new(Registry)

// renderLabels formats alternating key, value pairs as `k="v",...`.
// Values are escaped per the exposition format.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key, value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		v := labels[i+1]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		fmt.Fprintf(&b, `%s=%q`, labels[i], v)
	}
	return b.String()
}

// register returns the series for (name, labels), creating family and
// series as needed. Re-registration with the same name and labels returns
// the existing series; a kind conflict panics (programmer error). An
// empty name registers a /v1/stats-only value, keyed by its stat.
func (r *Registry) register(name, stat, help, kind string, labels []string) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.families == nil {
		r.families = make(map[string]*family)
	}
	key := name
	if key == "" {
		key = stat
	}
	f := r.families[key]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byLabels: make(map[string]*metric)}
		r.families[key] = f
		r.order = append(r.order, key)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", key, kind, f.kind))
	}
	ls := renderLabels(labels)
	if m, ok := f.byLabels[ls]; ok {
		return m
	}
	m := &metric{labels: ls, stat: stat}
	f.byLabels[ls] = m
	f.series = append(f.series, m)
	return m
}

// Counter registers (or returns) the counter named name. stat is its
// /v1/stats key ("section.field"; "" keeps it off that document); labels
// are alternating key, value pairs rendered as constant series labels.
func (r *Registry) Counter(name, stat, help string, labels ...string) *Counter {
	m := r.register(name, stat, help, "counter", labels)
	if m.c == nil {
		m.c = new(Counter)
	}
	return m.c
}

// Gauge registers (or returns) the gauge named name; stat as for Counter.
func (r *Registry) Gauge(name, stat, help string, labels ...string) *Gauge {
	m := r.register(name, stat, help, "gauge", labels)
	if m.g == nil {
		m.g = new(Gauge)
	}
	return m.g
}

// GaugeFunc registers a gauge whose value is f() at read time: a level
// derived from state the owner already keeps (semaphore slots held,
// counters' difference), so no second counter has to track it. f runs
// under the registry lock and must not touch the registry. An empty name
// makes it a /v1/stats-only value.
func (r *Registry) GaugeFunc(name, stat, help string, f func() int64) {
	m := r.register(name, stat, help, "gauge", nil)
	if m.fn == nil {
		m.fn = f
	}
}

// Histogram registers (or returns) the histogram named name with the
// given bucket upper bounds in seconds (nil selects DefBuckets). The
// bounds of the first registration win.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	m := r.register(name, "", help, "histogram", labels)
	if m.h == nil {
		if buckets == nil {
			buckets = DefBuckets
		}
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		m.h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
	}
	return m.h
}

// NewCounter registers (or returns) a counter in Default.
func NewCounter(name, stat, help string, labels ...string) *Counter {
	return Default.Counter(name, stat, help, labels...)
}

// NewGauge registers (or returns) a gauge in Default.
func NewGauge(name, stat, help string, labels ...string) *Gauge {
	return Default.Gauge(name, stat, help, labels...)
}

// NewHistogram registers (or returns) a histogram in Default.
func NewHistogram(name, help string, buckets []float64, labels ...string) *Histogram {
	return Default.Histogram(name, help, buckets, labels...)
}

// Stats returns the value of every series that declares a /v1/stats key,
// keyed by it.
func (r *Registry) Stats() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64)
	for _, key := range r.order {
		for _, m := range r.families[key].series {
			if m.stat != "" {
				out[m.stat] = m.value()
			}
		}
	}
	return out
}

// WritePrometheus writes every named family in the Prometheus text
// exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, key := range r.order {
		f := r.families[key]
		if f.name == "" {
			continue
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, m := range f.series {
			if err := writeSeries(w, f, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, m *metric) error {
	wrap := func(extra string) string {
		switch {
		case m.labels == "" && extra == "":
			return ""
		case m.labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + m.labels + "}"
		default:
			return "{" + m.labels + "," + extra + "}"
		}
	}
	switch f.kind {
	case "counter", "gauge":
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, wrap(""), m.value())
		return err
	case "histogram":
		var cum int64
		for i, b := range m.h.bounds {
			cum += m.h.counts[i].Load()
			le := fmt.Sprintf(`le="%s"`, formatBound(b))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, wrap(le), cum); err != nil {
				return err
			}
		}
		cum += m.h.inf.Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, wrap(`le="+Inf"`), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", f.name, wrap(""), m.h.Sum().Seconds()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, wrap(""), m.h.Count())
		return err
	}
	return nil
}

// formatBound renders a bucket bound without exponent noise ("0.005", not
// "5e-03"), matching what scrapers expect for le labels.
func formatBound(b float64) string {
	s := fmt.Sprintf("%g", b)
	if strings.ContainsAny(s, "eE") {
		s = strings.TrimRight(fmt.Sprintf("%.10f", b), "0")
		s = strings.TrimRight(s, ".")
	}
	return s
}

// Handler serves regs, in order, in Prometheus text format — clxd mounts
// it at GET /metrics. A family must live in exactly one of them.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, reg := range regs {
			if reg.WritePrometheus(w) != nil {
				return
			}
		}
	})
}
