// Package stream is the bounded-memory bulk-apply engine: it pulls a
// column through a verified program chunk by chunk, fanning chunks across
// the shared worker pool and re-emitting results in input order, so a
// million-row apply holds only a fixed window of chunks in memory instead
// of the whole column (paper §5 Transform, scaled past one slice).
//
// Determinism is inherited, not re-proven: each worker transforms its
// chunk with the program's own per-row apply (its ChunkApplier, pinned
// byte-identical to the Apply the in-memory SavedProgram.Transform uses),
// chunk boundaries depend only on ChunkSize, and parallel.Stream
// emits chunks in admission order — so the concatenated output is
// byte-identical to the in-memory path for every chunk size and worker
// count, which the differential suite checks over the whole 47-task
// benchmark. Backpressure is structural: at most MaxInFlight chunks are
// admitted and unemitted, so a slow sink stalls the reader rather than
// growing a buffer.
package stream

import (
	"io"
	"sync/atomic"
	"time"

	"clx/internal/parallel"
)

// ChunkApplier is the program the engine runs: per chunk it hands out a
// row-apply function, so the program can bind chunk-scoped scratch (span
// buffers, automaton state) once and amortize it across every row of the
// chunk. apply appends the transformed value to dst — or, with ok=false,
// the input unchanged because no recorded pattern covers it. release
// returns the scratch after the chunk is encoded; the returned apply must
// not be called after release, and distinct ChunkApplier results must be
// independently usable (chunks run concurrently). clx.SavedProgram
// implements it.
type ChunkApplier interface {
	ChunkApplier() (apply func(dst []byte, s string) ([]byte, bool), release func())
}

// Options configure one streaming run.
type Options struct {
	// ChunkSize is the number of rows per chunk (default 1024). It is the
	// unit of parallelism, ordering, and flushing.
	ChunkSize int
	// Workers bounds the chunk fan-out with the parallel.Workers
	// semantics: 0 = one per CPU, 1 = serial on the calling goroutine.
	Workers int
	// MaxInFlight bounds the chunks admitted and not yet emitted (default
	// 2× the resolved worker count). MaxInFlight × ChunkSize rows is the
	// engine's memory window.
	MaxInFlight int
	// OnFlagged, if set, is called in row order with the global index of
	// every row left unchanged — the streaming counterpart of Transform's
	// flagged list.
	OnFlagged func(row int)
	// Flush, if set, runs after each chunk's payload is written — wire it
	// to http.Flusher so clients see progress per chunk.
	Flush func() error
}

// DefaultChunkSize is the chunk size when Options.ChunkSize is 0.
const DefaultChunkSize = 1024

// Stats describes one completed (or aborted) streaming run.
type Stats struct {
	// Rows and Chunks are the emitted totals; Flagged counts rows left
	// unchanged.
	Rows    int64 `json:"rows"`
	Chunks  int64 `json:"chunks"`
	Flagged int64 `json:"flagged"`
	// PeakInFlight is the high-water mark of admitted-but-unemitted
	// chunks — at most Window by construction.
	PeakInFlight int `json:"peak_in_flight"`
	// Window is the resolved admission bound the run used (MaxInFlight,
	// or the parallel.Window default sized off effective parallelism).
	Window int `json:"window"`
	// Duration and RowsPerSec time the run end to end.
	Duration   time.Duration `json:"duration_ns"`
	RowsPerSec float64       `json:"rows_per_sec"`
}

// chunkOut is one transformed chunk: the encoded payload plus the local
// indices of flagged rows.
type chunkOut struct {
	payload []byte
	flagged []int
	rows    int
}

// Run pulls every value of r through prog, encodes results with enc, and
// writes them to w in input order, flushing per chunk. It returns the
// run's stats along with the first reader or writer error; on error the
// output ends cleanly at a chunk boundary (chunks before the failure are
// complete, nothing after it is written). Process-wide counters are
// updated either way (see Counters).
func Run(prog ChunkApplier, r Reader, enc Encoder, w io.Writer, opts Options) (Stats, error) {
	chunkSize := opts.ChunkSize
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}

	var (
		st       Stats
		inFlight atomic.Int64
		peak     atomic.Int64
		srcDone  bool
	)
	start := time.Now()

	next := func() ([]string, bool, error) {
		if srcDone {
			return nil, false, nil
		}
		rows, err := r.Next(chunkSize)
		if err == io.EOF {
			srcDone = true
			err = nil
		}
		if err != nil {
			return nil, false, err
		}
		if len(rows) == 0 {
			return nil, false, nil
		}
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		return rows, true, nil
	}

	apply := func(rows []string) chunkOut {
		defer func(t0 time.Time) { mChunkDur.Observe(time.Since(t0)) }(time.Now())
		out := chunkOut{rows: len(rows), payload: make([]byte, 0, 16*len(rows))}
		applyRow, release := prog.ChunkApplier()
		defer release()
		var val []byte
		for i, s := range rows {
			var ok bool
			val, ok = applyRow(val[:0], s)
			if !ok {
				out.flagged = append(out.flagged, i)
			}
			out.payload = enc.AppendValue(out.payload, val)
		}
		return out
	}

	emit := func(c chunkOut) error {
		inFlight.Add(-1)
		if opts.OnFlagged != nil {
			for _, li := range c.flagged {
				opts.OnFlagged(int(st.Rows) + li)
			}
		}
		if _, err := w.Write(c.payload); err != nil {
			return err
		}
		st.Rows += int64(c.rows)
		st.Chunks++
		st.Flagged += int64(len(c.flagged))
		if opts.Flush != nil {
			if err := opts.Flush(); err != nil {
				return err
			}
		}
		return nil
	}

	st.Window = parallel.Window(opts.Workers, opts.MaxInFlight)
	err := parallel.Stream(opts.Workers, st.Window, next, apply, emit)
	st.PeakInFlight = int(peak.Load())
	st.Duration = time.Since(start)
	if s := st.Duration.Seconds(); s > 0 {
		st.RowsPerSec = float64(st.Rows) / s
	}
	record(st, err)
	return st, err
}
