// Snapshot compaction racing WAL shipping. The leader's store folds its
// WAL into a snapshot every few records; the replicator reads record
// streams and full states off the same store concurrently. These tests
// pin that every interleaving — follower attached before the writes,
// follower joining after compaction already truncated the WAL it would
// have needed, and a follower coming back empty mid-stream — converges
// to the leader's exact fingerprint. Run under -race; writers, the
// flusher, and compaction all overlap.
package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"clx"
	"clx/internal/daemon"
	"clx/internal/fleet"
	"clx/internal/progstore"
)

// exportedProgram synthesizes one real program export — Register
// validates program JSON, so fixtures need the genuine article.
func exportedProgram(t *testing.T) json.RawMessage {
	t.Helper()
	target, err := clx.ParseAnyPattern("<D>3'-'<D>3'-'<D>4")
	if err != nil {
		t.Fatal(err)
	}
	sess := clx.NewSession([]string{"(734) 645-8397", "(734)586-7252", "734.236.3466"}, clx.Options{})
	tr, err := sess.Label(target)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := tr.Export()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// newFollowerNode serves a fresh in-memory store behind the replication
// endpoints and returns the store plus its base URL.
func newFollowerNode(t *testing.T) (*progstore.Store, string) {
	t.Helper()
	st, err := progstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := daemon.New(st, daemon.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return st, hs.URL
}

// registerN registers programs [from, to) on the leader from `writers`
// goroutines while `flush` runs concurrently, so WAL appends, compaction,
// and shipping genuinely interleave.
func registerN(t *testing.T, leader *progstore.Store, program json.RawMessage, from, to, writers int, flush func()) {
	t.Helper()
	ids := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ids {
				if _, err := leader.Register(program, progstore.Meta{
					ID:   fmt.Sprintf("prog-%03d", i),
					Name: "compaction-race",
				}); err != nil {
					t.Errorf("register %d: %v", i, err)
					return
				}
				flush()
			}
		}()
	}
	for i := from; i < to; i++ {
		ids <- i
	}
	close(ids)
	wg.Wait()
}

func TestReplicationRacesCompaction(t *testing.T) {
	program := exportedProgram(t)

	// Each scenario returns the leader store and a fully converged
	// replicator; the shared postlude asserts fingerprint identity and a
	// sane shipping ledger.
	scenarios := []struct {
		name string
		// wantSnapshots constrains FollowerStats.SnapshotsPushed.
		wantSnapshots func(int64) bool
		run           func(t *testing.T, leader *progstore.Store) (*fleet.Replicator, *progstore.Store)
	}{
		{
			// The follower is attached before any write: records ship as
			// compaction repeatedly truncates the WAL under the shipper.
			name:          "follower-from-start",
			wantSnapshots: func(n int64) bool { return n == 0 },
			run: func(t *testing.T, leader *progstore.Store) (*fleet.Replicator, *progstore.Store) {
				fst, url := newFollowerNode(t)
				repl := fleet.NewReplicator(leader, []string{url}, fleet.ReplicatorOptions{})
				t.Cleanup(repl.Close)
				registerN(t, leader, program, 0, 32, 4, func() { repl.Flush() })
				return repl, fst
			},
		},
		{
			// The follower joins after compaction already folded the
			// records it missed into the snapshot — only a full-state
			// resync can catch it up.
			name:          "join-after-compaction",
			wantSnapshots: func(n int64) bool { return n >= 1 },
			run: func(t *testing.T, leader *progstore.Store) (*fleet.Replicator, *progstore.Store) {
				registerN(t, leader, program, 0, 24, 4, func() {})
				fst, url := newFollowerNode(t)
				repl := fleet.NewReplicator(leader, []string{url}, fleet.ReplicatorOptions{})
				t.Cleanup(repl.Close)
				registerN(t, leader, program, 24, 32, 4, func() { repl.Flush() })
				return repl, fst
			},
		},
		{
			// Mid-stream the follower is replaced by an empty one (an
			// in-memory node restarting): the log gap forces a snapshot
			// resync while writers and compaction keep going.
			name:          "restart-empty-mid-stream",
			wantSnapshots: func(n int64) bool { return n >= 1 },
			run: func(t *testing.T, leader *progstore.Store) (*fleet.Replicator, *progstore.Store) {
				_, url := newFollowerNode(t)
				repl := fleet.NewReplicator(leader, []string{url}, fleet.ReplicatorOptions{})
				t.Cleanup(repl.Close)
				registerN(t, leader, program, 0, 16, 4, func() { repl.Flush() })
				fst, url2 := newFollowerNode(t)
				repl.SetFollowerURL(0, url2)
				registerN(t, leader, program, 16, 32, 4, func() { repl.Flush() })
				return repl, fst
			},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			leader, err := progstore.Open(filepath.Join(t.TempDir(), "leader"))
			if err != nil {
				t.Fatal(err)
			}
			defer leader.Close()
			// Compact every 4 records: a 32-write run folds the WAL eight
			// times while records are in flight.
			leader.SetCompactEvery(4)

			repl, followerStore := sc.run(t, leader)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := repl.Sync(ctx); err != nil {
				t.Fatalf("sync: %v\nstats: %+v", err, repl.Stats())
			}

			if lf, ff := leader.Fingerprint(), followerStore.Fingerprint(); lf != ff {
				t.Fatalf("fingerprints diverge after convergence: leader %s follower %s\nstats: %+v",
					lf, ff, repl.Stats())
			}
			if got, want := followerStore.Len(), leader.Len(); got != want {
				t.Fatalf("follower has %d programs, leader %d", got, want)
			}
			st := repl.Stats()
			f := st.Followers[0]
			if f.Lag != 0 || f.NeedsResync {
				t.Fatalf("follower not converged: %+v", f)
			}
			if !sc.wantSnapshots(f.SnapshotsPushed) {
				t.Fatalf("snapshots pushed = %d, outside the scenario's contract (%+v)",
					f.SnapshotsPushed, f)
			}
		})
	}
}
