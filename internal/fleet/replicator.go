// Leader-side WAL shipping. A Replicator taps the program registry's
// append stream (progstore.SetOnAppend) and ships every record to each
// follower clxd over HTTP — POST /v1/replication/wal — in log order.
// Shipping is pull-the-trigger synchronous: records accumulate in a
// per-follower pending queue under the store lock (cheap), and the write
// handler calls Flush before acknowledging the client, so a successful
// registration is on every healthy follower by the time the leader's
// 201 reaches the proxy. That is what lets the differential parity
// harness route the very next apply to any node and demand byte-equal
// answers.
//
// A follower that refuses a record (gap: it was down, or it joined after
// the leader compacted its WAL away) or cannot be reached is marked for
// resync; the next Flush/Sync pushes a full state snapshot — POST
// /v1/replication/snapshot — and resumes shipping from the snapshot's
// log index. Registries hold program entries, not data rows, so a full
// snapshot is small and resync-by-snapshot beats retaining a per-follower
// record backlog.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"clx/internal/obs"
	"clx/internal/progstore"
)

var (
	mShipped = obs.NewCounter("clx_repl_records_shipped_total", "",
		"Replication records shipped to followers (one count per record per follower).")
	mShipErrors = obs.NewCounter("clx_repl_ship_errors_total", "",
		"Failed replication ship attempts (transport errors and non-2xx responses).")
	mSnapshotsPushed = obs.NewCounter("clx_repl_snapshots_pushed_total", "",
		"Full-state snapshots pushed to followers for resync.")
)

// pendingCap bounds the per-follower queue: a follower that falls this
// far behind is cheaper to resync by snapshot than record by record.
const pendingCap = 1024

// ReplicatorOptions tune a Replicator.
type ReplicatorOptions struct {
	// Client is the HTTP client for shipping; nil uses a 5s-timeout
	// client (shipping happens on the write path — a hung follower must
	// not hold registrations hostage).
	Client *http.Client
	// RetryInterval enables a background loop that re-Syncs lagging or
	// unreachable followers every interval; 0 disables it (tests drive
	// Sync explicitly so convergence is deterministic, daemons enable it).
	RetryInterval time.Duration
}

// FollowerStats is one follower's shipping ledger.
type FollowerStats struct {
	URL string `json:"url"`
	// AckedIdx is the newest log index the follower acknowledged; Lag is
	// the leader's LastIdx minus AckedIdx (0 = converged).
	AckedIdx int64 `json:"acked_idx"`
	Lag      int64 `json:"lag"`
	// RecordsShipped counts acknowledged record ships; SnapshotsPushed
	// counts full-state resyncs; ShipErrors counts failed attempts.
	RecordsShipped  int64 `json:"records_shipped"`
	SnapshotsPushed int64 `json:"snapshots_pushed"`
	ShipErrors      int64 `json:"ship_errors"`
	// NeedsResync reports a follower waiting on a snapshot push; LastError
	// is the most recent failure, cleared on success.
	NeedsResync bool   `json:"needs_resync"`
	LastError   string `json:"last_error,omitempty"`
}

// ReplicatorStats is the leader-side replication section of /v1/stats.
type ReplicatorStats struct {
	LeaderIdx int64           `json:"leader_idx"`
	Followers []FollowerStats `json:"followers"`
}

// follower is the per-follower shipping state. Its mutex only guards the
// pending queue (appended under the store lock); everything else is
// guarded by the Replicator's ship mutex.
type follower struct {
	mu      sync.Mutex
	url     string
	pending []progstore.Record

	ackedIdx    int64
	shipped     int64
	snapshots   int64
	errors      int64
	needsResync bool
	lastErr     string
}

func (f *follower) enqueue(rec progstore.Record) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.pending) >= pendingCap {
		// Too far behind — drop the queue, a snapshot will cover it.
		f.pending = f.pending[:0]
		f.needsResync = true
		return
	}
	f.pending = append(f.pending, rec)
}

func (f *follower) takePending() []progstore.Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	recs := f.pending
	f.pending = nil
	return recs
}

// Replicator ships the store's append stream to a set of followers.
type Replicator struct {
	st     *progstore.Store
	client *http.Client

	// shipMu serializes Flush/Sync so records reach each follower in log
	// order even when several write handlers flush concurrently.
	shipMu    sync.Mutex
	followers []*follower

	stop chan struct{}
	done chan struct{}
}

// NewReplicator attaches a replicator to st, tapping every subsequent
// append. followerURLs are the base URLs of follower clxd nodes (e.g.
// http://host:8081). Call Close to detach.
func NewReplicator(st *progstore.Store, followerURLs []string, opts ReplicatorOptions) *Replicator {
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	r := &Replicator{st: st, client: client, stop: make(chan struct{}), done: make(chan struct{})}
	for _, u := range followerURLs {
		// A follower joining a leader that already has state starts behind;
		// the first ship detects the gap and pushes a snapshot.
		r.followers = append(r.followers, &follower{url: u, needsResync: st.LastIdx() > 0})
	}
	st.SetOnAppend(r.observe)
	if opts.RetryInterval > 0 {
		go r.retryLoop(opts.RetryInterval)
	} else {
		close(r.done)
	}
	return r
}

// observe runs under the store's write lock: enqueue only.
func (r *Replicator) observe(rec progstore.Record) {
	for _, f := range r.followers {
		f.enqueue(rec)
	}
}

// Flush ships every pending record to every follower, pushing a snapshot
// first to any follower marked for resync. Write handlers call this
// before acknowledging a mutation. Per-follower failures are recorded in
// the stats, not returned: one dead follower must not fail the write.
func (r *Replicator) Flush() {
	r.shipMu.Lock()
	defer r.shipMu.Unlock()
	for _, f := range r.followers {
		r.flushFollower(f)
	}
}

// Sync flushes and then drives every follower to the leader's current
// log index, resyncing as needed, until done or ctx expires. The
// convergence primitive fault-injection tests and graceful shutdown use.
func (r *Replicator) Sync(ctx context.Context) error {
	for {
		r.Flush()
		lag := int64(0)
		r.shipMu.Lock()
		leaderIdx := r.st.LastIdx()
		for _, f := range r.followers {
			if d := leaderIdx - f.ackedIdx; d > lag {
				lag = d
			}
		}
		r.shipMu.Unlock()
		if lag == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet: sync: followers still lag %d records: %w", lag, ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// flushFollower ships f's pending queue (snapshot first if flagged).
// Callers hold shipMu.
func (r *Replicator) flushFollower(f *follower) {
	recs := f.takePending()
	if f.needsResync {
		if !r.pushSnapshot(f) {
			return
		}
		// The snapshot captured every record appended before it was taken;
		// drop the queue entries it covers.
		live := recs[:0]
		for _, rec := range recs {
			if rec.Idx > f.ackedIdx {
				live = append(live, rec)
			}
		}
		recs = live
	}
	if len(recs) == 0 {
		return
	}
	// Drop duplicates of already-acked records (a Flush raced the enqueue).
	for len(recs) > 0 && recs[0].Idx <= f.ackedIdx {
		recs = recs[1:]
	}
	if len(recs) == 0 {
		return
	}
	if recs[0].Idx != f.ackedIdx+1 {
		// Gap — the queue overflowed or this follower joined late.
		f.needsResync = true
		if r.pushSnapshot(f) {
			f.needsResync = false
		}
		return
	}
	body, err := encodeWire(WALShipRequest{Records: recs})
	if err != nil {
		panic(err) // records round-trip through the WAL; never non-encodable
	}
	status, resp, err := r.post(f.url+"/v1/replication/wal", body)
	switch {
	case err != nil:
		f.errors++
		mShipErrors.Inc()
		f.lastErr = err.Error()
		f.needsResync = true
	case status == http.StatusConflict:
		// Follower is on a different log position (restarted empty, or a
		// stray direct write forked it) — snapshot heals either way.
		f.needsResync = true
		if r.pushSnapshot(f) {
			f.needsResync = false
		}
	case status != http.StatusOK:
		f.errors++
		mShipErrors.Inc()
		f.lastErr = fmt.Sprintf("ship: follower returned %d: %s", status, resp.Error)
		f.needsResync = true
	default:
		f.ackedIdx = resp.LastIdx
		f.shipped += int64(len(recs))
		mShipped.Add(int64(len(recs)))
		f.lastErr = ""
	}
}

// pushSnapshot installs the leader's full state on f, reporting success.
// Callers hold shipMu.
func (r *Replicator) pushSnapshot(f *follower) bool {
	state := r.st.State()
	body, err := encodeWire(state)
	if err != nil {
		panic(err)
	}
	status, resp, err := r.post(f.url+"/v1/replication/snapshot", body)
	if err != nil || status != http.StatusOK {
		f.errors++
		mShipErrors.Inc()
		if err != nil {
			f.lastErr = err.Error()
		} else {
			f.lastErr = fmt.Sprintf("snapshot: follower returned %d: %s", status, resp.Error)
		}
		return false
	}
	f.ackedIdx = state.LastIdx
	f.snapshots++
	mSnapshotsPushed.Inc()
	f.needsResync = false
	f.lastErr = ""
	return true
}

// encodeWire marshals without HTML escaping. Program entries embed
// json.RawMessage full of "<D>3" patterns; the follower stores whatever
// bytes arrive, so escaping here would make replicated registries
// byte-diverge from the leader's even though they are JSON-equal.
func encodeWire(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// post sends one replication message and decodes the uniform response.
func (r *Replicator) post(url string, body []byte) (int, ReplResponse, error) {
	var out ReplResponse
	resp, err := r.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, out, err
	}
	_ = json.Unmarshal(raw, &out) // error detail is best-effort
	return resp.StatusCode, out, nil
}

// SetFollowerURL repoints follower i (a restarted node listens on a new
// address) and marks it for resync on the next flush.
func (r *Replicator) SetFollowerURL(i int, url string) {
	r.shipMu.Lock()
	defer r.shipMu.Unlock()
	r.followers[i].url = url
	r.followers[i].needsResync = true
}

// Stats snapshots the shipping ledger.
func (r *Replicator) Stats() ReplicatorStats {
	r.shipMu.Lock()
	defer r.shipMu.Unlock()
	leaderIdx := r.st.LastIdx()
	st := ReplicatorStats{LeaderIdx: leaderIdx}
	for _, f := range r.followers {
		st.Followers = append(st.Followers, FollowerStats{
			URL:             f.url,
			AckedIdx:        f.ackedIdx,
			Lag:             leaderIdx - f.ackedIdx,
			RecordsShipped:  f.shipped,
			SnapshotsPushed: f.snapshots,
			ShipErrors:      f.errors,
			NeedsResync:     f.needsResync,
			LastError:       f.lastErr,
		})
	}
	return st
}

// retryLoop re-Syncs lagging followers until Close.
func (r *Replicator) retryLoop(interval time.Duration) {
	defer close(r.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.Flush()
		}
	}
}

// Close detaches the replicator from the store and stops the retry loop.
func (r *Replicator) Close() {
	r.st.SetOnAppend(nil)
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
}
