package stream_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	clx "clx"
	"clx/internal/obs"
	"clx/internal/stream"
)

// upperApplier is a deterministic toy program: uppercases letters-only
// values, flags anything containing a digit.
type upperApplier struct{}

func (upperApplier) ChunkApplier() (func(dst []byte, s string) ([]byte, bool), func()) {
	return func(dst []byte, s string) ([]byte, bool) {
		for _, r := range s {
			if r >= '0' && r <= '9' {
				return append(dst, s...), false
			}
		}
		return append(dst, strings.ToUpper(s)...), true
	}, func() {}
}

// phoneProgram synthesizes a real verified program over messy phone rows
// and reloads it through the Export/LoadProgram round trip — the same
// artifact the daemon streams against.
func phoneProgram(t testing.TB) *clx.SavedProgram {
	t.Helper()
	rows := []string{"(734) 645-8397", "(734)586-7252", "734.236.3466", "734-422-8073"}
	sess := clx.NewSession(rows)
	tr, err := sess.Label(clx.MustParsePattern("<D>3'-'<D>3'-'<D>4"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := clx.LoadProgram(raw)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func genPhones(n int) []string {
	formats := []string{"(%03d) %03d-%04d", "%03d.%03d.%04d", "%03d-%03d-%04d"}
	rows := make([]string, n)
	for i := range rows {
		rows[i] = fmt.Sprintf(formats[i%len(formats)], 200+i%700, i%1000, i%10000)
	}
	return rows
}

// The engine output must equal the in-memory Transform byte for byte —
// values, order, and flagged indices — for every chunk size and worker
// count, including chunks of one row and chunks larger than the column.
func TestRunMatchesTransform(t *testing.T) {
	sp := phoneProgram(t)
	rows := genPhones(531)
	rows = append(rows, "N/A", "", "not a phone")
	wantOut, wantFlagged := sp.Transform(rows)
	var want bytes.Buffer
	for _, v := range wantOut {
		want.WriteString(v)
		want.WriteByte('\n')
	}
	for _, chunk := range []int{1, 7, 64, 4096} {
		for _, workers := range []int{1, 2, 4, 8} {
			var got bytes.Buffer
			var flagged []int
			st, err := stream.Run(sp, stream.NewSliceReader(rows), stream.LineEncoder{}, &got,
				stream.Options{ChunkSize: chunk, Workers: workers,
					OnFlagged: func(row int) { flagged = append(flagged, row) }})
			if err != nil {
				t.Fatalf("chunk=%d workers=%d: %v", chunk, workers, err)
			}
			if got.String() != want.String() {
				t.Fatalf("chunk=%d workers=%d: output diverges from Transform", chunk, workers)
			}
			if !reflect.DeepEqual(flagged, wantFlagged) {
				t.Fatalf("chunk=%d workers=%d: flagged %v, want %v", chunk, workers, flagged, wantFlagged)
			}
			if st.Rows != int64(len(rows)) || st.Flagged != int64(len(wantFlagged)) {
				t.Fatalf("chunk=%d workers=%d: stats %+v", chunk, workers, st)
			}
			wantChunks := int64((len(rows) + chunk - 1) / chunk)
			if st.Chunks != wantChunks {
				t.Fatalf("chunk=%d workers=%d: chunks %d, want %d", chunk, workers, st.Chunks, wantChunks)
			}
		}
	}
}

func TestRunEmptyInput(t *testing.T) {
	var got bytes.Buffer
	st, err := stream.Run(upperApplier{}, stream.NewLineReader(strings.NewReader("")),
		stream.LineEncoder{}, &got, stream.Options{Workers: 4})
	if err != nil || got.Len() != 0 || st.Rows != 0 || st.Chunks != 0 {
		t.Fatalf("empty input: %+v, %v, %q", st, err, got.String())
	}
}

// flushCounter counts per-chunk flushes.
func TestRunFlushesPerChunk(t *testing.T) {
	var flushes int
	var got bytes.Buffer
	st, err := stream.Run(upperApplier{}, stream.NewSliceReader([]string{"a", "b", "c", "d", "e"}),
		stream.LineEncoder{}, &got,
		stream.Options{ChunkSize: 2, Workers: 1, Flush: func() error { flushes++; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if int64(flushes) != st.Chunks || flushes != 3 {
		t.Fatalf("flushes = %d, chunks = %d", flushes, st.Chunks)
	}
}

// The in-flight window never exceeds MaxInFlight even when the sink is
// much slower than the source and workers.
func TestRunBoundedInFlight(t *testing.T) {
	rows := genPhones(2000)
	slow := &slowWriter{}
	st, err := stream.Run(upperApplier{}, stream.NewSliceReader(rows), stream.LineEncoder{}, slow,
		stream.Options{ChunkSize: 10, Workers: 4, MaxInFlight: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakInFlight > 5 {
		t.Fatalf("peak in-flight %d exceeds MaxInFlight 5", st.PeakInFlight)
	}
	if st.PeakInFlight < 2 {
		t.Fatalf("peak in-flight %d: backpressure test never filled the window", st.PeakInFlight)
	}
}

type slowWriter struct{ n int }

func (w *slowWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n%20 == 0 {
		time.Sleep(time.Millisecond)
	}
	return len(p), nil
}

// A write error (client disconnect) aborts the stream promptly: no
// further writes, the error surfaces, and no worker goroutines survive.
func TestRunWriteErrorAborts(t *testing.T) {
	before := runtime.NumGoroutine()
	rows := genPhones(10000)
	fw := &failingWriter{failAt: 3}
	_, err := stream.Run(upperApplier{}, stream.NewSliceReader(rows), stream.LineEncoder{}, fw,
		stream.Options{ChunkSize: 16, Workers: 4})
	if err == nil || !strings.Contains(err.Error(), "client gone") {
		t.Fatalf("err = %v", err)
	}
	if fw.writes > fw.failAt {
		t.Fatalf("writer called %d times after failing at %d", fw.writes, fw.failAt)
	}
	waitForGoroutines(t, before)
}

type failingWriter struct{ writes, failAt int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes >= w.failAt {
		return 0, fmt.Errorf("client gone")
	}
	return len(p), nil
}

// A reader error mid-stream emits every chunk admitted before it, then
// surfaces the error; nothing leaks.
func TestRunReaderErrorSurfaces(t *testing.T) {
	before := runtime.NumGoroutine()
	var got bytes.Buffer
	fr := &failingReader{rows: genPhones(100), failAfter: 50}
	_, err := stream.Run(upperApplier{}, fr, stream.LineEncoder{}, &got,
		stream.Options{ChunkSize: 10, Workers: 4})
	if err == nil || !strings.Contains(err.Error(), "torn input") {
		t.Fatalf("err = %v", err)
	}
	if n := bytes.Count(got.Bytes(), []byte{'\n'}); n != 50 {
		t.Fatalf("emitted %d rows before the reader error, want 50", n)
	}
	waitForGoroutines(t, before)
}

type failingReader struct {
	rows      []string
	pos       int
	failAfter int
}

func (r *failingReader) Next(max int) ([]string, error) {
	if r.pos >= r.failAfter {
		return nil, fmt.Errorf("torn input")
	}
	end := r.pos + max
	if end > r.failAfter {
		end = r.failAfter
	}
	out := r.rows[r.pos:end]
	r.pos = end
	return out, nil
}

func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
}

// countingReader generates phone rows on the fly — the million-row source
// that never materializes the column.
type countingReader struct {
	n, total int
	formats  []string
}

func newCountingReader(total int) *countingReader {
	return &countingReader{total: total,
		formats: []string{"(%03d) %03d-%04d", "%03d.%03d.%04d", "%03d-%03d-%04d"}}
}

func (r *countingReader) Next(max int) ([]string, error) {
	if r.n >= r.total {
		return nil, io.EOF
	}
	if r.n+max > r.total {
		max = r.total - r.n
	}
	out := make([]string, max)
	for i := range out {
		k := r.n + i
		out[i] = fmt.Sprintf(r.formats[k%3], 200+k%700, k%1000, k%10000)
	}
	r.n += max
	return out, nil
}

// The acceptance bound: a 1M-row apply through a real verified program
// stays within a fixed chunk-budget memory window. The materialized
// column plus its output would occupy well over 60 MB; the stream must
// hold only MaxInFlight×ChunkSize rows, so sampled live heap growth stays
// far below that.
func TestMillionRowBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row memory-bound run skipped in -short mode")
	}
	sp := phoneProgram(t)
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	var peak atomic.Uint64
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		var ms runtime.MemStats
		for {
			select {
			case <-stopSampler:
				return
			case <-time.After(2 * time.Millisecond):
			}
			runtime.ReadMemStats(&ms)
			for {
				p := peak.Load()
				if ms.HeapAlloc <= p || peak.CompareAndSwap(p, ms.HeapAlloc) {
					break
				}
			}
		}
	}()

	const rows = 1_000_000
	st, err := stream.Run(sp, newCountingReader(rows), stream.LineEncoder{}, io.Discard,
		stream.Options{ChunkSize: 1024, Workers: 4})
	close(stopSampler)
	<-samplerDone
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != rows {
		t.Fatalf("rows = %d", st.Rows)
	}
	if st.Flagged != 0 {
		t.Fatalf("flagged = %d, want 0", st.Flagged)
	}
	growth := int64(peak.Load()) - int64(base.HeapAlloc)
	const bound = 32 << 20
	if growth > bound {
		t.Fatalf("peak heap growth %d MiB exceeds the %d MiB chunk budget (materializing would need > 60 MiB)",
			growth>>20, bound>>20)
	}
	t.Logf("1M rows: %.0f rows/sec, peak in-flight %d, heap growth %d KiB",
		st.RowsPerSec, st.PeakInFlight, growth>>10)
}

// Global counters accumulate across runs; they are read through the
// registry that serves /v1/stats.
func TestGlobalCounters(t *testing.T) {
	before := obs.Default.Stats()
	var got bytes.Buffer
	if _, err := stream.Run(upperApplier{}, stream.NewSliceReader([]string{"a", "1"}),
		stream.LineEncoder{}, &got, stream.Options{ChunkSize: 1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	_, _ = stream.Run(upperApplier{}, &failingReader{}, stream.LineEncoder{}, &got,
		stream.Options{Workers: 1})
	after := obs.Default.Stats()
	d := func(key string) int64 { return after["streaming."+key] - before["streaming."+key] }
	if d("streams") != 2 || d("errors") != 1 || d("rows") != 2 || d("chunks") != 2 || d("flagged") != 1 {
		t.Fatalf("counters moved by streams=%d errors=%d rows=%d chunks=%d flagged=%d",
			d("streams"), d("errors"), d("rows"), d("chunks"), d("flagged"))
	}
}
