// Follower-side replication: the store as a replica. A leader ships the
// exact records it WAL-appended (the JSON-lines log is the wire format);
// a follower applies them through ApplyRecord, which reuses the
// crash-recovery mutation path and appends each record to the follower's
// own fsynced WAL — so a follower restart recovers through snapshot ∘
// WAL replay exactly like a leader restart, and a converged follower is
// byte-identical to its leader (Fingerprint pins this).
//
// Records are totally ordered by Idx with no gaps. A follower that
// detects a gap (it missed records while down, or it connected after the
// leader compacted) refuses the record with ErrOutOfOrder; the leader
// then pushes a full state snapshot (InstallState), after which shipping
// resumes from the snapshot's LastIdx. Registries are small — entries,
// not rows — so snapshot-on-gap is cheaper than retaining a record
// backlog per follower.
package progstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"clx/internal/obs"
)

var (
	mReplApplied = obs.NewCounter("clx_repl_records_applied_total", "",
		"Replication records applied by this process's follower stores.")
	mReplSnapshots = obs.NewCounter("clx_repl_snapshots_installed_total", "",
		"Full-state replication snapshots installed by this process's follower stores.")
)

// ErrOutOfOrder is returned by ApplyRecord when a record's Idx is not the
// next index the store expects — the follower missed records and must be
// resynced from a snapshot. Use errors.Is.
var ErrOutOfOrder = fmt.Errorf("progstore: replication record out of order")

// SetOnAppend installs the replication tap: fn observes every locally
// originated record (Register, Delete) immediately after its durable WAL
// append, in Idx order. fn runs with the store lock held and must not
// call back into the store; keep it to enqueueing. A nil fn removes the
// tap. Records applied via ApplyRecord are not observed — replication
// does not chain through followers.
func (s *Store) SetOnAppend(fn func(Record)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onAppend = fn
}

// LastIdx returns the replication log index of the newest mutation.
func (s *Store) LastIdx() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastIdx
}

// ApplyRecord applies one shipped record to a follower store, durably
// (appended to the follower's own WAL before returning). The record must
// be the next in the log: rec.Idx == LastIdx()+1. A record at or below
// LastIdx is a re-ship and is ignored (nil error); a record further
// ahead returns ErrOutOfOrder and the follower must be resynced via
// InstallState.
func (s *Store) ApplyRecord(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case rec.Idx <= s.lastIdx:
		return nil // duplicate of an already-applied record
	case rec.Idx != s.lastIdx+1:
		return fmt.Errorf("%w: got idx %d, want %d", ErrOutOfOrder, rec.Idx, s.lastIdx+1)
	}
	s.applyRecordLocked(rec)
	if err := s.append(rec); err != nil {
		// The in-memory state is ahead of the follower's WAL now; surface
		// the error so the leader marks this follower for a snapshot resync
		// rather than acking a record the replica cannot recover.
		return err
	}
	s.recordsApplied++
	mReplApplied.Inc()
	return nil
}

// State returns the full registry state — the replication snapshot a
// leader pushes to a follower that cannot be caught up record by record.
// Entries are shared immutable snapshots; callers must not mutate them.
type State = snapshotDoc

// State captures the current registry state under the read lock.
func (s *Store) State() State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := State{Seq: s.seq, LastIdx: s.lastIdx, Order: append([]string(nil), s.order...)}
	for _, id := range s.order {
		st.Entries = append(st.Entries, s.entries[id])
	}
	return st
}

// InstallState replaces the follower's entire registry with the leader's
// snapshot and persists it (snapshot.json rewritten, WAL truncated), so
// a restart after the install recovers the installed state. Subsequent
// ApplyRecord calls continue from st.LastIdx+1.
func (s *Store) InstallState(st State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq = st.Seq
	s.lastIdx = st.LastIdx
	s.order = append([]string(nil), st.Order...)
	s.entries = make(map[string]*Entry, len(st.Entries))
	s.loaded = make(map[string]*loadedProgram)
	for _, e := range st.Entries {
		s.entries[e.ID] = e
	}
	s.snapshotsInstalled++
	mReplSnapshots.Inc()
	if s.dir == "" || s.wal == nil {
		return nil
	}
	return s.compactLocked()
}

// Fingerprint is a deterministic digest of the full registry state —
// seq, log index, listing order, and every entry byte-for-byte. Two
// stores with equal fingerprints serve byte-identical registries; the
// cluster parity and convergence suites assert exactly this.
func (s *Store) Fingerprint() string {
	st := s.State()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(st); err != nil {
		// State is always encodable (it round-trips through the snapshot);
		// an error here is a programmer error.
		panic(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// ReplicationStats is the follower-side replication ledger for one
// store, surfaced per node under /v1/stats so an in-process multi-node
// fixture can reconcile shipping exactly (the process-wide /metrics
// series aggregate across stores).
type ReplicationStats struct {
	// LastIdx is the newest applied replication log index.
	LastIdx int64 `json:"last_idx"`
	// RecordsApplied counts records applied via ApplyRecord.
	RecordsApplied int64 `json:"records_applied"`
	// SnapshotsInstalled counts full-state resyncs via InstallState.
	SnapshotsInstalled int64 `json:"snapshots_installed"`
}

// ReplicationStats returns this store's follower-side ledger.
func (s *Store) ReplicationStats() ReplicationStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return ReplicationStats{
		LastIdx:            s.lastIdx,
		RecordsApplied:     s.recordsApplied,
		SnapshotsInstalled: s.snapshotsInstalled,
	}
}
