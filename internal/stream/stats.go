// Process-wide streaming counters, in the obs default registry: every Run
// folds its per-stream stats in here, and clxd serves the same series as
// clx_stream_* at GET /metrics and under streaming in GET /v1/stats — one
// set of numbers, no dual bookkeeping to drift.
package stream

import "clx/internal/obs"

var (
	// mStreams counts completed runs; mStreamErrors the runs that ended
	// with a reader or writer error (aborted client included).
	mStreams = obs.NewCounter("clx_streams_total", "streaming.streams",
		"Completed streaming bulk-apply runs (errored runs included).")
	mStreamErrors = obs.NewCounter("clx_stream_errors_total", "streaming.errors",
		"Streaming runs that ended with a reader or writer error.")
	mStreamRows = obs.NewCounter("clx_stream_rows_total", "streaming.rows",
		"Rows emitted by streaming bulk-apply runs.")
	mStreamChunks = obs.NewCounter("clx_stream_chunks_total", "streaming.chunks",
		"Chunks emitted by streaming bulk-apply runs.")
	mStreamFlagged = obs.NewCounter("clx_stream_flagged_total", "streaming.flagged",
		"Streamed rows left unchanged because no recorded pattern covers them.")
	// mStreamPeak is the maximum in-flight chunk window any run reached.
	mStreamPeak = obs.NewGauge("clx_stream_peak_in_flight", "streaming.peak_in_flight",
		"High-water mark of admitted-but-unemitted chunks across all runs.")
	mChunkDur = obs.NewHistogram("clx_stream_chunk_duration_seconds",
		"Per-chunk transform latency inside the streaming engine.", nil)
)

// record folds one run into the process counters.
func record(st Stats, err error) {
	mStreams.Inc()
	if err != nil {
		mStreamErrors.Inc()
	}
	mStreamRows.Add(st.Rows)
	mStreamChunks.Add(st.Chunks)
	mStreamFlagged.Add(st.Flagged)
	mStreamPeak.Max(int64(st.PeakInFlight))
}
