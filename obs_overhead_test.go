package clx_test

import (
	"io"
	"runtime"
	"sort"
	"testing"
	"time"

	clx "clx"
	"clx/internal/dataset"
	"clx/internal/obs"
	"clx/internal/pattern"
	"clx/internal/stream"
)

// BenchmarkObsOverhead measures what the observability layer costs and
// fails past a 5% budget; `make obs-smoke` runs it once with
// -benchtime 1x.
//
// The same process runs the public-API pipeline (profile → synthesize →
// transform) and a streaming bulk apply over 20k phone rows, twice per
// repetition: once with the metric registry frozen (obs.SetEnabled(false),
// the uninstrumented baseline) and once live. The mode order alternates
// between repetitions and a forced GC precedes every timed run, so
// scheduler drift and collection debt hit both modes equally. Each
// repetition contributes one paired relative difference (its two modes
// run adjacent in time, so machine drift cancels within the pair); the
// overhead is the median over those pairs, which stays stable on noisy
// shared machines where comparing per-mode aggregates does not.
func BenchmarkObsOverhead(b *testing.B) {
	const (
		rows           = 20000
		reps           = 21
		maxOverheadPct = 5.0
	)
	col, _ := dataset.Phones(rows, 6, 77)
	target := pattern.MustParse("<D>3'-'<D>3'-'<D>4")

	label := func() *clx.Transformation {
		tr, err := clx.NewSession(col).Label(target)
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	// The streaming leg measures the serving hot path, not synthesis: the
	// program goes through the export/load round trip once, the same
	// artifact the daemon serves.
	raw, err := label().Export()
	if err != nil {
		b.Fatal(err)
	}
	sp, err := clx.LoadProgram(raw)
	if err != nil {
		b.Fatal(err)
	}

	pipelineOnce := func() time.Duration {
		t0 := time.Now()
		label().Run()
		return time.Since(t0)
	}
	streamOnce := func() time.Duration {
		t0 := time.Now()
		if _, err := stream.Run(sp, stream.NewSliceReader(col), stream.NDJSONEncoder{},
			io.Discard, stream.Options{}); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	// Warm-up both legs (matcher cache, page-in, scheduler settle).
	pipelineOnce()
	streamOnce()

	timed := func(enabled bool) (pipe, strm time.Duration) {
		prev := obs.SetEnabled(enabled)
		defer obs.SetEnabled(prev)
		runtime.GC()
		pipe = pipelineOnce()
		runtime.GC()
		strm = streamOnce()
		return pipe, strm
	}
	overheadPct := func(base, inst time.Duration) float64 {
		return 100 * float64(inst-base) / float64(base)
	}
	b.ResetTimer()
	var pipePairs, streamPairs []float64
	for r := 0; r < reps; r++ {
		var bp, bs, ip, is time.Duration
		if r%2 == 0 {
			bp, bs = timed(false)
			ip, is = timed(true)
		} else {
			ip, is = timed(true)
			bp, bs = timed(false)
		}
		pipePairs = append(pipePairs, overheadPct(bp, ip))
		streamPairs = append(streamPairs, overheadPct(bs, is))
	}
	b.StopTimer()

	pipe, strm := median(pipePairs), median(streamPairs)
	b.ReportMetric(pipe, "pipeline-overhead-%")
	b.ReportMetric(strm, "stream-overhead-%")
	if pipe > maxOverheadPct {
		b.Fatalf("pipeline overhead %.2f%% exceeds the %.1f%% budget (stream %.2f%%; median of %d paired reps)",
			pipe, maxOverheadPct, strm, reps)
	}
}

// median returns the median of vs (mean of the middle pair for even
// lengths), sorting vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}
