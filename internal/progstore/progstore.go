// Package progstore is a concurrency-safe, persistent registry of
// synthesized CLX programs — the serving-side half of the paper's
// verifiable-artifact story (§5, §7). A program is synthesized and
// verified once (the expensive Algorithm-2 path), registered here, and
// then applied many times by id without any synthesis: the store keeps
// the exported program JSON, its source-pattern profile and synthesis
// metadata under a monotonic version, survives daemon restarts through an
// append-only JSON-lines WAL with periodic snapshot compaction, and
// extends verifiability to serving time by reporting *drift* — rows of a
// live column that match none of the program's recorded patterns — on
// every apply.
package progstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	clx "clx"
	"clx/internal/obs"
)

// Registry durability metrics: every mutation is a fsynced WAL append and
// every compaction rewrites the snapshot, so their latencies are the
// daemon's write-path floor — the first place to look when registrations
// slow down.
var (
	mWALAppends = obs.NewCounter("clx_wal_appends_total", "",
		"Program-registry WAL records appended (each fsynced).")
	mWALAppendDur = obs.NewHistogram("clx_wal_append_duration_seconds",
		"Latency of one fsynced program-registry WAL append.", nil)
	mCompactions = obs.NewCounter("clx_wal_compactions_total", "",
		"Program-registry WAL compactions into snapshot.json.")
	mCompactDur = obs.NewHistogram("clx_wal_compaction_duration_seconds",
		"Latency of folding the registry WAL into its snapshot.", nil)
)

// Repair is one plan-repair choice recorded at synthesis time (§6.4):
// source Source's default plan was replaced by its Alt-th alternative.
type Repair struct {
	Source int `json:"source"`
	Alt    int `json:"alt"`
}

// Entry is one registered program. All fields are written by the store;
// callers treat entries as immutable snapshots.
type Entry struct {
	// ID identifies the program; assigned on first registration.
	ID string `json:"id"`
	// Version increases monotonically each time the id is re-registered.
	Version int `json:"version"`
	// CreatedAtUnix is the registration time of this version.
	CreatedAtUnix int64 `json:"created_at_unix"`
	// Name is an optional human label.
	Name string `json:"name,omitempty"`
	// Target is the program's target pattern (compact notation).
	Target string `json:"target"`
	// Sources are the source patterns the program covers — the recorded
	// format profile drift detection checks live rows against.
	Sources []string `json:"sources"`
	// RowCount is the size of the column the program was synthesized from.
	RowCount int `json:"row_count,omitempty"`
	// Repairs are the plan choices applied before export.
	Repairs []Repair `json:"repairs,omitempty"`
	// Program is the exported program (clx.Transformation.Export), the
	// same human-auditable JSON the user verified.
	Program json.RawMessage `json:"program"`
}

// Meta is the caller-supplied registration metadata.
type Meta struct {
	// ID re-registers an existing program, bumping its version; empty
	// allocates a fresh id.
	ID string
	// Name is an optional human label.
	Name string
	// RowCount records the synthesis column size.
	RowCount int
	// Repairs records the plan-repair choices applied before export.
	Repairs []Repair
}

// Store is the registry. All methods are safe for concurrent use.
type Store struct {
	mu  sync.RWMutex
	dir string // "" = ephemeral (no durability)

	entries map[string]*Entry
	order   []string // ids in first-registration order
	seq     int64    // id allocator, monotonic across restarts

	// loaded caches the decoded program per id so the apply path never
	// re-parses JSON; invalidated on re-register and delete. Guarded by mu
	// (write-locked on fill — decode is cheap and happens once per
	// version).
	loaded map[string]*loadedProgram

	wal          *walFile
	walRecords   int // records appended since the last snapshot
	compactEvery int

	// lastIdx is the replication log index of the newest mutation. Every
	// Register/Delete (and every follower ApplyRecord) advances it by one,
	// so the sequence of records a leader ships is gap-free and a follower
	// can detect a missed record by arithmetic alone.
	lastIdx int64

	// onAppend, when set, observes every locally originated record after
	// its durable WAL append — the leader-side replication tap. Called with
	// mu held so observed records are totally ordered by Idx; the hook must
	// not call back into the store.
	onAppend func(Record)

	// Follower-side replication accounting (see ReplicationStats).
	recordsApplied     int64
	snapshotsInstalled int64

	now func() int64
}

// loadedProgram is the hot-path form of an entry: the decoded program and
// its compiled-matcher-backed profile.
type loadedProgram struct {
	version int
	sp      *clx.SavedProgram
	target  clx.Pattern
}

// CompactEvery is the default snapshot cadence: after this many WAL
// records the store folds the log into snapshot.json and truncates it.
const CompactEvery = 64

// Open opens (or creates) the registry in dir, recovering the full state
// from snapshot + WAL. An empty dir yields an ephemeral in-memory store.
func Open(dir string) (*Store, error) {
	s := &Store{
		dir:          dir,
		entries:      make(map[string]*Entry),
		loaded:       make(map[string]*loadedProgram),
		compactEvery: CompactEvery,
		now:          func() int64 { return time.Now().Unix() },
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("progstore: %w", err)
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	n, err := s.replayWAL()
	if err != nil {
		return nil, err
	}
	s.walRecords = n
	w, err := openWAL(s.walPath())
	if err != nil {
		return nil, err
	}
	s.wal = w
	return s, nil
}

func (s *Store) walPath() string      { return filepath.Join(s.dir, "wal.jsonl") }
func (s *Store) snapshotPath() string { return filepath.Join(s.dir, "snapshot.json") }

// Register validates and stores an exported program. With meta.ID empty a
// new id is allocated; otherwise the existing entry's version is bumped
// (registering an unknown explicit id starts it at version 1). The entry
// is durable — WAL-appended and fsynced — before Register returns.
func (s *Store) Register(program json.RawMessage, meta Meta) (Entry, error) {
	sp, err := clx.LoadProgram(program)
	if err != nil {
		return Entry{}, fmt.Errorf("progstore: invalid program: %w", err)
	}
	// Store the program compacted: WAL and snapshot serialization compact
	// embedded JSON anyway, so normalizing here keeps the registered bytes
	// byte-identical across every recovery path.
	var compacted bytes.Buffer
	if err := json.Compact(&compacted, program); err != nil {
		return Entry{}, fmt.Errorf("progstore: invalid program: %w", err)
	}
	sources := make([]string, 0, len(sp.Sources()))
	for _, p := range sp.Sources() {
		sources = append(sources, p.String())
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	e := &Entry{
		ID:            meta.ID,
		Version:       1,
		CreatedAtUnix: s.now(),
		Name:          meta.Name,
		Target:        sp.Target().String(),
		Sources:       sources,
		RowCount:      meta.RowCount,
		Repairs:       append([]Repair(nil), meta.Repairs...),
		Program:       json.RawMessage(compacted.Bytes()),
	}
	if e.ID == "" {
		s.seq++
		e.ID = fmt.Sprintf("p%06d", s.seq)
	}
	prev, existed := s.entries[e.ID]
	if existed {
		e.Version = prev.Version + 1
		if e.Name == "" {
			e.Name = prev.Name
		}
	} else {
		s.order = append(s.order, e.ID)
	}
	// State first, WAL second: the append may fold the state into a
	// snapshot (compaction), which must already see this entry. On WAL
	// failure the registration is rolled back — a client must never hold
	// an id the store cannot recover after a crash.
	s.entries[e.ID] = e
	s.loaded[e.ID] = &loadedProgram{version: e.Version, sp: sp, target: sp.Target()}
	s.lastIdx++
	rec := Record{Op: OpPut, Seq: s.seq, Idx: s.lastIdx, Entry: e}
	if err := s.append(rec); err != nil {
		s.lastIdx--
		if existed {
			s.entries[e.ID] = prev
			delete(s.loaded, e.ID)
		} else {
			delete(s.entries, e.ID)
			delete(s.loaded, e.ID)
			s.order = s.order[:len(s.order)-1]
		}
		return Entry{}, err
	}
	if s.onAppend != nil {
		s.onAppend(rec)
	}
	return *e, nil
}

// Get returns the entry for id.
func (s *Store) Get(id string) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[id]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// List returns every entry in first-registration order.
func (s *Store) List() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry, 0, len(s.entries))
	for _, id := range s.order {
		if e, ok := s.entries[id]; ok {
			out = append(out, *e)
		}
	}
	return out
}

// Len returns the number of registered programs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Delete removes id, durably. It reports whether the id existed.
func (s *Store) Delete(id string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, ok := s.entries[id]
	if !ok {
		return false, nil
	}
	delete(s.entries, id)
	delete(s.loaded, id)
	pos := -1
	for i, oid := range s.order {
		if oid == id {
			pos = i
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.lastIdx++
	rec := Record{Op: OpDelete, Seq: s.seq, Idx: s.lastIdx, ID: id}
	if err := s.append(rec); err != nil {
		s.lastIdx--
		s.entries[id] = prev
		if pos >= 0 {
			s.order = append(s.order[:pos], append([]string{id}, s.order[pos:]...)...)
		}
		return false, err
	}
	if s.onAppend != nil {
		s.onAppend(rec)
	}
	return true, nil
}

// program returns the cached decoded program for id, filling the cache on
// a version miss (only after a restart — Register pre-fills it).
func (s *Store) program(id string) (*loadedProgram, int, error) {
	s.mu.RLock()
	e, ok := s.entries[id]
	var lp *loadedProgram
	if ok {
		lp = s.loaded[id]
	}
	s.mu.RUnlock()
	if !ok {
		return nil, 0, ErrNotFound
	}
	if lp != nil && lp.version == e.Version {
		return lp, e.Version, nil
	}
	sp, err := clx.LoadProgram(e.Program)
	if err != nil {
		return nil, 0, fmt.Errorf("progstore: stored program %s is corrupt: %w", id, err)
	}
	lp = &loadedProgram{version: e.Version, sp: sp, target: sp.Target()}
	s.mu.Lock()
	// Another goroutine may have raced the fill or re-registered; keep the
	// newest version.
	if cur, ok2 := s.loaded[id]; !ok2 || cur.version < lp.version {
		s.loaded[id] = lp
	}
	s.mu.Unlock()
	return lp, lp.version, nil
}

// ErrNotFound is returned for operations on an unknown program id.
var ErrNotFound = fmt.Errorf("progstore: program not found")

// SetCompactEvery overrides the snapshot cadence (n WAL records per
// compaction). Aggressive cadences are how tests force compaction to race
// concurrent writers and replication shipping; n <= 0 restores the
// default.
func (s *Store) SetCompactEvery(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		n = CompactEvery
	}
	s.compactEvery = n
}

// Flush compacts the WAL into a snapshot, leaving an empty log. Called on
// graceful shutdown so restart recovery is a single snapshot read.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" || s.wal == nil {
		return nil
	}
	return s.compactLocked()
}

// Close flushes and releases the WAL. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.compactLocked()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}

// append writes one WAL record (fsynced) and triggers compaction at the
// configured cadence. Callers hold the write lock. Ephemeral stores are a
// no-op.
func (s *Store) append(rec Record) error {
	if s.dir == "" || s.wal == nil {
		return nil
	}
	t0 := time.Now()
	err := s.wal.Append(rec)
	mWALAppendDur.Observe(time.Since(t0))
	if err != nil {
		return err
	}
	mWALAppends.Inc()
	s.walRecords++
	if s.walRecords >= s.compactEvery {
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// snapshotDoc is the snapshot.json document: the full registry plus the id
// allocator and the replication log index, so recovery is snapshot ∘ WAL
// replay. It is also the replication snapshot a leader pushes to a
// follower that cannot be caught up record by record (see State).
type snapshotDoc struct {
	Seq     int64    `json:"seq"`
	LastIdx int64    `json:"last_idx,omitempty"`
	Order   []string `json:"order"`
	Entries []*Entry `json:"entries"`
}

// compactLocked folds the current state into snapshot.json (write-temp,
// fsync, rename) and truncates the WAL. Callers hold the write lock.
func (s *Store) compactLocked() error {
	defer func(t0 time.Time) {
		mCompactions.Inc()
		mCompactDur.Observe(time.Since(t0))
	}(time.Now())
	doc := snapshotDoc{Seq: s.seq, LastIdx: s.lastIdx, Order: append([]string(nil), s.order...)}
	for _, id := range s.order {
		doc.Entries = append(doc.Entries, s.entries[id])
	}
	// Encode without HTML escaping so the embedded program JSON (full of
	// "<D>3" patterns) stays byte-identical across snapshot round-trips.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("progstore: snapshot: %w", err)
	}
	raw := buf.Bytes()
	tmp := s.snapshotPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("progstore: snapshot: %w", err)
	}
	if _, err := f.Write(raw); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("progstore: snapshot: %w", err)
	}
	if err := os.Rename(tmp, s.snapshotPath()); err != nil {
		return fmt.Errorf("progstore: snapshot: %w", err)
	}
	if err := s.wal.Truncate(); err != nil {
		return err
	}
	s.walRecords = 0
	return nil
}

// loadSnapshot restores state from snapshot.json if present.
func (s *Store) loadSnapshot() error {
	raw, err := os.ReadFile(s.snapshotPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("progstore: snapshot: %w", err)
	}
	var doc snapshotDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("progstore: snapshot corrupt: %w", err)
	}
	s.seq = doc.Seq
	s.lastIdx = doc.LastIdx
	for _, e := range doc.Entries {
		s.entries[e.ID] = e
	}
	// Order comes from the document; tolerate older snapshots without it.
	s.order = doc.Order
	if len(s.order) == 0 && len(doc.Entries) > 0 {
		for _, e := range doc.Entries {
			s.order = append(s.order, e.ID)
		}
		sort.Strings(s.order)
	}
	return nil
}

// replayWAL applies the log on top of the snapshot, tolerating a partial
// tail: a crash mid-append leaves a final record without a newline or
// with malformed JSON, which replay drops by truncating the file back to
// the last intact record. It returns the number of live records.
func (s *Store) replayWAL() (int, error) {
	recs, err := replay(s.walPath())
	if err != nil {
		return 0, err
	}
	for _, rec := range recs {
		s.applyRecordLocked(rec)
	}
	return len(recs), nil
}

// applyRecordLocked folds one record into the in-memory state — the
// single mutation path shared by crash-recovery replay and follower
// replication, so the two can never diverge. Callers hold the write
// lock. Idempotent over duplicate records (a retried append, a re-shipped
// replication record).
func (s *Store) applyRecordLocked(rec Record) {
	if rec.Seq > s.seq {
		s.seq = rec.Seq
	}
	if rec.Idx > s.lastIdx {
		s.lastIdx = rec.Idx
	}
	switch rec.Op {
	case OpPut:
		if rec.Entry == nil {
			return
		}
		if _, ok := s.entries[rec.Entry.ID]; !ok {
			s.order = append(s.order, rec.Entry.ID)
		}
		s.entries[rec.Entry.ID] = rec.Entry
		// Replay and replication bypass Register's cache pre-fill; drop any
		// stale decode so the next apply re-parses the new version.
		delete(s.loaded, rec.Entry.ID)
	case OpDelete:
		if _, ok := s.entries[rec.ID]; ok {
			delete(s.entries, rec.ID)
			delete(s.loaded, rec.ID)
			for i, oid := range s.order {
				if oid == rec.ID {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
		}
	}
}
