package sessionstore

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clx"
)

var rows = []string{"415-555-0100", "(212) 555-0102", "646.555.0103"}

// fakeClock is a mutex-protected injectable clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestCreateAcquireDelete(t *testing.T) {
	st := New(Config{})
	h, err := st.Create("", rows, clx.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() == "" {
		t.Fatal("empty generated id")
	}
	got, release, err := st.Acquire(h.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got != h || got.Session() == nil {
		t.Fatal("Acquire returned a different or empty handle")
	}
	if n := got.Session().ProfileStats().Rows; n != len(rows) {
		t.Errorf("session rows = %d, want %d", n, len(rows))
	}
	release()

	if !st.Delete(h.ID()) {
		t.Error("Delete of live session returned false")
	}
	if st.Delete(h.ID()) {
		t.Error("second Delete returned true")
	}
	if _, _, err := st.Acquire(h.ID()); !errors.Is(err, ErrNotFound) {
		t.Errorf("Acquire after delete: %v, want ErrNotFound", err)
	}
	if c := st.Stats(); c.Created != 1 || c.Deleted != 1 || c.Active != 0 {
		t.Errorf("counters = %+v", c)
	}
}

func TestPinnedAndDuplicateIDs(t *testing.T) {
	st := New(Config{})
	if _, err := st.Create("s-pinned", rows, clx.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Acquire("s-pinned"); err != nil {
		t.Fatalf("pinned id not acquirable: %v", err)
	}
	if _, err := st.Create("s-pinned", rows, clx.DefaultOptions()); err == nil {
		t.Error("duplicate pinned id accepted")
	}
}

func TestCapacityAndRetryAfter(t *testing.T) {
	clk := newFakeClock()
	st := New(Config{MaxSessions: 2, TTL: 10 * time.Minute, Now: clk.Now})
	for i := 0; i < 2; i++ {
		if _, err := st.Create(fmt.Sprintf("s-%d", i), rows, clx.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Create("s-over", rows, clx.DefaultOptions()); !errors.Is(err, ErrFull) {
		t.Fatalf("create past capacity: %v, want ErrFull", err)
	}
	if c := st.Stats(); c.Rejected != 1 || c.Created != 2 {
		t.Errorf("counters = %+v", c)
	}
	// Both sessions were touched "now": a full TTL must pass before a
	// slot frees.
	if ra := st.RetryAfter(); ra != 10*time.Minute {
		t.Errorf("RetryAfter = %v, want full TTL", ra)
	}
	clk.Advance(9 * time.Minute)
	if ra := st.RetryAfter(); ra != time.Minute {
		t.Errorf("RetryAfter = %v, want 1m", ra)
	}
	clk.Advance(2 * time.Minute) // everything expired: floor at 1s
	if ra := st.RetryAfter(); ra != time.Second {
		t.Errorf("RetryAfter = %v, want 1s floor", ra)
	}
	// The lazy sweep on Create now frees both expired slots.
	if _, err := st.Create("s-after", rows, clx.DefaultOptions()); err != nil {
		t.Fatalf("create after expiry: %v", err)
	}
	if got := st.Len(); got != 1 {
		t.Errorf("Len = %d after sweep+create, want 1", got)
	}
}

// TTL eviction is deterministic under the injected clock: sessions fall
// out exactly when their idle time crosses the TTL, touches reset the
// clock, and a busy (locked) session is never evicted.
func TestTTLEvictionDeterminism(t *testing.T) {
	clk := newFakeClock()
	st := New(Config{TTL: time.Hour, Now: clk.Now})

	a, _ := st.Create("s-a", rows, clx.DefaultOptions())
	clk.Advance(30 * time.Minute)
	b, _ := st.Create("s-b", rows, clx.DefaultOptions())

	if n := st.Sweep(); n != 0 {
		t.Fatalf("sweep before expiry evicted %d", n)
	}

	// 30m later session a is exactly at its TTL (lastUsed <= cutoff),
	// session b is 30m short.
	clk.Advance(30 * time.Minute)
	if n := st.Sweep(); n != 1 {
		t.Fatalf("sweep at a's expiry evicted %d, want 1", n)
	}
	if _, _, err := st.Acquire(a.ID()); !errors.Is(err, ErrNotFound) {
		t.Errorf("evicted session still acquirable: %v", err)
	}

	// Touching b resets its idle clock: one more hour must pass.
	_, release, err := st.Acquire(b.ID())
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(59 * time.Minute)
	release() // release stamps lastUsed at +59m
	clk.Advance(59 * time.Minute)
	if n := st.Sweep(); n != 0 {
		t.Fatalf("sweep evicted touched session %d short of TTL: %d", 1, n)
	}
	clk.Advance(time.Minute)
	if n := st.Sweep(); n != 1 {
		t.Fatalf("sweep at b's expiry evicted %d, want 1", n)
	}

	// A busy session is skipped even when long expired.
	c, _ := st.Create("s-c", rows, clx.DefaultOptions())
	_, release, err = st.Acquire(c.ID())
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Hour)
	if n := st.Sweep(); n != 0 {
		t.Fatalf("sweep evicted an in-use session: %d", n)
	}
	release() // refreshes the idle clock
	if n := st.Sweep(); n != 0 {
		t.Fatalf("sweep right after release evicted %d", n)
	}
	clk.Advance(2 * time.Hour)
	if n := st.Sweep(); n != 1 {
		t.Fatalf("sweep after release+TTL evicted %d, want 1", n)
	}

	if cts := st.Stats(); cts.Created != 3 || cts.Evicted != 3 || cts.Active != 0 {
		t.Errorf("counters = %+v", cts)
	}
}

// The race exercise: parallel create/append/label/repair/delete plus a
// hostile sweeper on one store, run under -race by make gate. At the end
// the active gauge must conserve exactly: created - evicted - deleted ==
// live == Len().
func TestConcurrentSessions(t *testing.T) {
	clk := newFakeClock()
	st := New(Config{TTL: time.Hour, MaxSessions: 64, Now: clk.Now})

	const workers = 8
	const opsPerWorker = 30
	var wg sync.WaitGroup
	var acquireMisses atomic.Int64

	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("s-w%d", w)
			if _, err := st.Create(id, rows, clx.DefaultOptions()); err != nil {
				t.Errorf("worker %d create: %v", w, err)
				return
			}
			for i := 0; i < opsPerWorker; i++ {
				h, release, err := st.Acquire(id)
				if err != nil {
					// Sweeper or a neighbor's delete beat us; recreate.
					acquireMisses.Add(1)
					if _, err := st.Create(id, rows, clx.DefaultOptions()); err != nil {
						t.Errorf("worker %d recreate: %v", w, err)
						return
					}
					continue
				}
				sess := h.Session()
				switch i % 4 {
				case 0:
					sess.AppendAndReprofile([]string{fmt.Sprintf("917-555-%04d", i)})
				case 1:
					sess.AppendAndReprofile(nil)
				case 2:
					tr, err := sess.Label(clx.MustParsePattern("<D>3'-'<D>3'-'<D>4"))
					if err == nil && len(tr.Sources()) > 0 {
						_ = tr.RepairCandidates(0)
					}
				case 3:
					if i%8 == 3 {
						release()
						st.Delete(id)
						if _, err := st.Create(id, rows, clx.DefaultOptions()); err != nil {
							t.Errorf("worker %d recreate after delete: %v", w, err)
							return
						}
						continue
					}
					sess.ProfileStats()
				}
				release()
			}
		}()
	}

	// Hostile sweeper advancing the clock past the TTL.
	stop := make(chan struct{})
	var sweeperWG sync.WaitGroup
	sweeperWG.Add(1)
	go func() {
		defer sweeperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clk.Advance(2 * time.Hour)
				st.Sweep()
			}
		}
	}()

	wg.Wait()
	close(stop)
	sweeperWG.Wait()

	c := st.Stats()
	live := int64(st.Len())
	if c.Created-c.Evicted-c.Deleted != live {
		t.Errorf("gauge conservation violated: created %d - evicted %d - deleted %d != live %d (misses %d)",
			c.Created, c.Evicted, c.Deleted, live, acquireMisses.Load())
	}
	if c.Active != live {
		t.Errorf("Stats().Active = %d, Len = %d", c.Active, live)
	}
}

// sweepHolding replays the window the Delete/Sweep races live in: a
// Sweep has collected h as expired and won its TryLock (the test holds
// h.mu in its place) when a Delete of the same id removes h from the map
// and blocks on the handle lock. between runs inside that window; the
// sweep's eviction step then runs, the lock is released, and the Delete
// finishes.
func sweepHolding(t *testing.T, st *Store, clk *fakeClock, h *Handle, between func()) (evicted bool) {
	t.Helper()
	clk.Advance(2 * time.Hour)
	cutoff := clk.Now().Add(-st.cfg.TTL).UnixNano()
	h.mu.Lock()
	deleted := make(chan bool)
	go func() { deleted <- st.Delete(h.ID()) }()
	// Delete takes the map entry before the handle lock; wait for that
	// without sleeping.
	for {
		st.mu.RLock()
		gone := st.m[h.ID()] != h
		st.mu.RUnlock()
		if gone {
			break
		}
		runtime.Gosched()
	}
	between()
	evicted = st.evictLocked(h, cutoff)
	h.mu.Unlock()
	if !<-deleted {
		t.Error("Delete of a live session returned false")
	}
	return evicted
}

// A Delete that lands while a Sweep holds the handle lock is counted once,
// as a deletion: the sweep no longer finds the handle in the map.
func TestDeleteDuringSweepCountsOnce(t *testing.T) {
	clk := newFakeClock()
	st := New(Config{TTL: time.Hour, Now: clk.Now})
	h, err := st.Create("s-x", rows, clx.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sweepHolding(t, st, clk, h, func() {}) {
		t.Error("sweep evicted a handle Delete had already removed")
	}
	c := st.Stats()
	if c.Created != 1 || c.Deleted != 1 || c.Evicted != 0 || c.Active != 0 || st.Len() != 0 {
		t.Errorf("counters = %+v, Len = %d; want one create, one delete, nothing live", c, st.Len())
	}
}

// A session re-created under the same pinned id while a Sweep still holds
// the old handle survives the sweep: the sweep removes only its own
// handle from the map.
func TestSweepSparesRecreatedSession(t *testing.T) {
	clk := newFakeClock()
	st := New(Config{TTL: time.Hour, Now: clk.Now})
	old, err := st.Create("s-pin", rows, clx.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var fresh *Handle
	evicted := sweepHolding(t, st, clk, old, func() {
		if fresh, err = st.Create("s-pin", rows, clx.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	if evicted {
		t.Error("sweep evicted through a stale handle")
	}
	got, release, err := st.Acquire("s-pin")
	if err != nil || got != fresh {
		t.Fatalf("re-created session lost to the sweep: got %p (%v), want %p", got, err, fresh)
	}
	release()
	c := st.Stats()
	if c.Created != 2 || c.Deleted != 1 || c.Evicted != 0 || c.Active != 1 || st.Len() != 1 {
		t.Errorf("counters = %+v, Len = %d; want two creates, one delete, one live", c, st.Len())
	}
}

func TestListAndLen(t *testing.T) {
	st := New(Config{})
	for _, id := range []string{"s-b", "s-a", "s-c"} {
		if _, err := st.Create(id, rows, clx.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	infos := st.List()
	if len(infos) != 3 || st.Len() != 3 {
		t.Fatalf("List = %d entries, Len = %d", len(infos), st.Len())
	}
	for i, want := range []string{"s-a", "s-b", "s-c"} {
		if infos[i].ID != want {
			t.Errorf("List[%d] = %s, want %s", i, infos[i].ID, want)
		}
	}
}
