package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	c := NewCounter("test_events_total", "", "test counter")
	c.Reset()
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Re-registration returns the same series.
	if again := NewCounter("test_events_total", "", "test counter"); again != c {
		t.Error("re-registration allocated a new counter")
	}

	g := NewGauge("test_inflight", "", "test gauge")
	g.Reset()
	g.Add(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Value())
	}
	g.Max(10)
	g.Max(4) // lower: ignored
	if g.Value() != 10 {
		t.Fatalf("gauge after Max = %d, want 10", g.Value())
	}
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge after Set = %d, want 7", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("test_latency_seconds", "test histogram", []float64{0.001, 0.01, 0.1})
	h.Reset()
	h.Observe(500 * time.Microsecond) // -> 0.001
	h.Observe(2 * time.Millisecond)   // -> 0.01
	h.Observe(3 * time.Millisecond)   // -> 0.01
	h.Observe(time.Second)            // -> +Inf
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	wantSum := 500*time.Microsecond + 5*time.Millisecond + time.Second
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}

	var b strings.Builder
	if err := Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_latency_seconds test histogram",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.001"} 1`,
		`test_latency_seconds_bucket{le="0.01"} 3`, // cumulative
		`test_latency_seconds_bucket{le="0.1"} 3`,
		`test_latency_seconds_bucket{le="+Inf"} 4`,
		"test_latency_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledSeriesShareOneFamily(t *testing.T) {
	a := NewCounter("test_stage_total", "", "per-stage counter", "stage", "profile")
	b := NewCounter("test_stage_total", "", "per-stage counter", "stage", "synthesize")
	if a == b {
		t.Fatal("distinct label sets must be distinct series")
	}
	a.Reset()
	b.Reset()
	a.Add(2)
	b.Add(5)

	var sb strings.Builder
	if err := Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "# TYPE test_stage_total counter") != 1 {
		t.Errorf("TYPE emitted more than once per family:\n%s", out)
	}
	for _, want := range []string{
		`test_stage_total{stage="profile"} 2`,
		`test_stage_total{stage="synthesize"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSetEnabledFreezesCountersNotGauges(t *testing.T) {
	c := NewCounter("test_frozen_total", "", "freeze test")
	h := NewHistogram("test_frozen_seconds", "freeze test", nil)
	g := NewGauge("test_frozen_gauge", "", "freeze test")
	c.Reset()
	h.Reset()
	g.Reset()

	prev := SetEnabled(false)
	defer SetEnabled(prev)
	c.Inc()
	h.Observe(time.Millisecond)
	g.Add(1)
	if c.Value() != 0 || h.Count() != 0 {
		t.Errorf("disabled recording still counted: counter=%d hist=%d", c.Value(), h.Count())
	}
	if g.Value() != 1 {
		t.Errorf("gauge must stay live when disabled, got %d", g.Value())
	}
	SetEnabled(true)
	c.Inc()
	h.Observe(time.Millisecond)
	if c.Value() != 1 || h.Count() != 1 {
		t.Errorf("re-enabled recording dropped events: counter=%d hist=%d", c.Value(), h.Count())
	}
}

func TestHandlerServesTextFormat(t *testing.T) {
	NewCounter("test_handler_total", "", "handler test").Inc()
	rec := httptest.NewRecorder()
	Handler(Default).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_handler_total") {
		t.Errorf("handler output missing series:\n%s", rec.Body.String())
	}
}

// TestRegistryRenderings: an instance registry keeps its own series apart
// from Default and from another instance under the same family name, and
// its two renderings read the same values — Stats by stats key (computed
// gauges included), Prometheus text by family name, stats-only values
// left out of the text.
func TestRegistryRenderings(t *testing.T) {
	var a, b Registry
	ca := a.Counter("test_instance_total", "test.events", "per-instance counter")
	cb := b.Counter("test_instance_total", "test.events", "per-instance counter")
	if ca == cb {
		t.Fatal("two registries share one series")
	}
	ca.Add(3)
	cb.Inc()
	level := int64(7)
	a.GaugeFunc("test_instance_level", "test.level", "computed gauge", func() int64 { return level })
	a.GaugeFunc("", "test.hint", "stats-only value", func() int64 { return 2 })

	if got, want := a.Stats(), map[string]int64{"test.events": 3, "test.level": 7, "test.hint": 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("a.Stats() = %v, want %v", got, want)
	}
	if got := b.Stats()["test.events"]; got != 1 {
		t.Errorf("b's counter = %d, want 1", got)
	}
	if _, ok := Default.Stats()["test.events"]; ok {
		t.Error("an instance series leaked into Default")
	}

	var sb strings.Builder
	if err := a.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# HELP test_instance_total per-instance counter\n# TYPE test_instance_total counter\ntest_instance_total 3\n" +
		"# HELP test_instance_level computed gauge\n# TYPE test_instance_level gauge\ntest_instance_level 7\n"
	if sb.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}

	rec := httptest.NewRecorder()
	Handler(&a, &b).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if n := strings.Count(rec.Body.String(), "# TYPE test_instance_total counter"); n != 2 {
		t.Errorf("Handler(a, b) rendered the family %d times, want once per registry", n)
	}
}

func TestConcurrentMutation(t *testing.T) {
	c := NewCounter("test_concurrent_total", "", "race test")
	h := NewHistogram("test_concurrent_seconds", "race test", nil)
	c.Reset()
	h.Reset()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: counter=%d hist=%d, want 8000", c.Value(), h.Count())
	}
}

func TestRequestIDs(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("request IDs collide: %s", a)
	}
	if !strings.Contains(a, "-") {
		t.Errorf("request ID %q lacks the procid-seq shape", a)
	}
	ctx := WithRequestID(context.Background(), a)
	if got := RequestIDFrom(ctx); got != a {
		t.Errorf("RequestIDFrom = %q, want %q", got, a)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Errorf("empty context yielded %q", got)
	}
}

func TestLoggerJSON(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf, "json")
	l.now = func() time.Time { return time.Unix(1700000000, 0) }
	ctx := WithRequestID(context.Background(), "abc-000001")
	l.Log(ctx, "request", "method", "GET", "status", 200, "duration_ms", 1.5)

	var doc map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("log line is not JSON: %q: %v", buf.String(), err)
	}
	if doc["msg"] != "request" || doc["request_id"] != "abc-000001" ||
		doc["method"] != "GET" || doc["status"] != float64(200) {
		t.Errorf("log doc = %v", doc)
	}
	if _, ok := doc["ts"]; !ok {
		t.Error("log line missing ts")
	}
}

func TestLoggerText(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf, "text")
	ctx := WithRequestID(context.Background(), "abc-000002")
	l.Log(ctx, "request", "path", "/v1/stats", "note", "two words")
	line := buf.String()
	for _, want := range []string{"request", "request_id=abc-000002", "path=/v1/stats", `note="two words"`} {
		if !strings.Contains(line, want) {
			t.Errorf("text line missing %q: %q", want, line)
		}
	}
	// Odd trailing key is dropped, not a panic.
	buf.Reset()
	l.Log(context.Background(), "odd", "dangling")
	if !strings.Contains(buf.String(), "odd") || strings.Contains(buf.String(), "dangling") {
		t.Errorf("odd kv handling: %q", buf.String())
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Log(context.Background(), "nothing") // must not panic
}

func TestFormatBound(t *testing.T) {
	cases := map[float64]string{0.0001: "0.0001", 0.25: "0.25", 1: "1", 10: "10", 0.00025: "0.00025"}
	for in, want := range cases {
		if got := formatBound(in); got != want {
			t.Errorf("formatBound(%v) = %q, want %q", in, got, want)
		}
	}
}
