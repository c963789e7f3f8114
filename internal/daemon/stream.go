// The streaming bulk-apply endpoint: POST /v1/programs/{id}/apply/stream
// runs a registered program over a request body too large to buffer,
// chunk by chunk, with bounded memory on the server no matter the column
// size. Input framing is selected by query parameters, output is NDJSON —
// one JSON string per transformed row, in input order, then a single
// trailer object carrying the stream stats (or an error frame if the
// source turned out malformed mid-stream, after the 200 was committed).
package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"clx/internal/progstore"
	"clx/internal/stream"
)

// streamFlaggedCap bounds the flagged-row indices carried in the trailer;
// the full count is always reported.
const streamFlaggedCap = 10000

// streamTrailer is the final NDJSON frame of a streaming apply. Done is
// true iff every input row was read, transformed, and written; otherwise
// Error names what stopped the stream.
type streamTrailer struct {
	Done    bool   `json:"done"`
	Error   string `json:"error,omitempty"`
	ID      string `json:"id,omitempty"`
	Version int    `json:"version,omitempty"`
	Rows    int64  `json:"rows"`
	Chunks  int64  `json:"chunks"`
	Flagged int64  `json:"flagged"`
	// FlaggedRows lists the first streamFlaggedCap flagged indices;
	// FlaggedTruncated reports when the list was cut.
	FlaggedRows      []int   `json:"flagged_rows,omitempty"`
	FlaggedTruncated bool    `json:"flagged_truncated,omitempty"`
	RowsPerSec       float64 `json:"rows_per_sec"`
}

// handleProgramApplyStream is the chunked hot path. Everything that can
// be validated before the first byte of output — program id, query
// parameters, a Content-Length over the body cap — fails with the uniform
// JSON error envelope; once rows are flowing, failures become a trailer
// error frame, which is all HTTP allows after the status line.
func (s *server) handleProgramApplyStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sp, version, err := s.store.Load(id)
	if err == progstore.ErrNotFound {
		writeError(w, http.StatusNotFound, fmt.Errorf("program %s not found", id))
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if r.ContentLength > maxBody {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body %d bytes exceeds the %d-byte cap", r.ContentLength, maxBody))
		return
	}
	// Admission control: each stream pins a chunk × MaxInFlight window of
	// memory for its whole lifetime, so admission is bounded by the
	// semaphore (see admission.go). The decision is non-blocking —
	// turning a burst away immediately with 429 beats queueing it against
	// the server's write timeout. The Retry-After hint is an EWMA of
	// recent stream durations: roughly when the next slot frees, instead
	// of a hardcoded guess.
	release, admitted := s.admission.Admit()
	if !admitted {
		s.rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.streamEWMA.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("too many concurrent streams (limit %d); retry later", s.admission.slots()))
		return
	}
	s.admitted.Inc()
	defer release()
	streamStart := time.Now()
	defer func() {
		d := time.Since(streamStart)
		s.streamEWMA.Observe(d)
		streamReqDur.Observe(d)
	}()
	q := r.URL.Query()
	chunk, err := intParam(q, "chunk", stream.DefaultChunkSize)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	workers, err := intParam(q, "workers", s.opts.Workers)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Chunked request bodies bypass the Content-Length check above;
	// MaxBytesReader still enforces the cap, surfacing as a mid-stream
	// reader error once the limit is crossed.
	body := http.MaxBytesReader(w, r.Body, maxBody)
	var rd stream.Reader
	switch in := q.Get("input"); in {
	case "", "lines":
		rd = stream.NewLineReader(body)
	case "ndjson":
		rd = stream.NewNDJSONReader(body)
	case "csv":
		col, err := intParam(q, "col", 0)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		rd = stream.NewCSVReader(body, col, q.Get("header") == "1" || q.Get("header") == "true")
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown input format %q (want lines, ndjson, or csv)", in))
		return
	}

	// The endpoint is bidirectional: clients may still be producing rows
	// while results flow back. Without full-duplex mode the server drains
	// up to 256KiB of unread request body before releasing the response
	// headers — a slow producer would deadlock against its own unsent
	// rows, and the drained rows would vanish from the apply. Best-effort:
	// writers that don't support it (test recorders) don't drain either.
	http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	trailer := streamTrailer{ID: id, Version: version}
	st, runErr := stream.Run(sp, rd, stream.NDJSONEncoder{}, w, stream.Options{
		ChunkSize: chunk,
		Workers:   workers,
		OnFlagged: func(row int) {
			if len(trailer.FlaggedRows) < streamFlaggedCap {
				trailer.FlaggedRows = append(trailer.FlaggedRows, row)
			} else {
				trailer.FlaggedTruncated = true
			}
		},
		Flush: func() error {
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		},
	})
	trailer.Rows = st.Rows
	trailer.Chunks = st.Chunks
	trailer.Flagged = st.Flagged
	trailer.RowsPerSec = st.RowsPerSec
	if runErr != nil {
		// A write error means the client is gone — the trailer write below
		// fails silently, which is fine. A reader error reaches a live
		// client as an explicit error frame in place of the done trailer.
		trailer.Error = runErr.Error()
	} else {
		trailer.Done = true
	}
	writeNDJSONFrame(w, trailer)
	if flusher != nil {
		flusher.Flush()
	}
}

// writeNDJSONFrame writes one JSON object frame and a newline.
func writeNDJSONFrame(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // Encode appends the newline
}

// intParam parses an optional integer query parameter.
func intParam(q map[string][]string, name string, def int) (int, error) {
	vals := q[name]
	if len(vals) == 0 || vals[0] == "" {
		return def, nil
	}
	n, err := strconv.Atoi(vals[0])
	if err != nil {
		return 0, fmt.Errorf("query parameter %s: %v", name, err)
	}
	return n, nil
}
