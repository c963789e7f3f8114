// Unit tests of the admission semaphore and the EWMA-derived Retry-After
// hint: slot acquire/release, the EWMA computation, and the 429 header
// carrying the derived value.
package daemon

import (
	"math"
	"net/http"
	"strconv"
	"testing"
	"time"

	"clx/internal/progstore"
)

func TestSemaphoreAdmission(t *testing.T) {
	a := newSemaphoreAdmission(2)
	r1, ok1 := a.Admit()
	r2, ok2 := a.Admit()
	if !ok1 || !ok2 {
		t.Fatal("first two admits rejected")
	}
	if _, ok := a.Admit(); ok {
		t.Fatal("third admit over a 2-slot semaphore accepted")
	}
	r1()
	if _, ok := a.Admit(); !ok {
		t.Fatal("admit after release rejected")
	}
	r2()
	if a.slots() != 2 {
		t.Errorf("slots=%d, want 2", a.slots())
	}
}

func TestDurationEWMAComputation(t *testing.T) {
	var e durationEWMA
	if e.Seconds() != 0 {
		t.Fatalf("unseeded EWMA = %v", e.Seconds())
	}
	// First observation seeds the average exactly.
	e.Observe(10 * time.Second)
	if got := e.Seconds(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("after seed: %v, want 10", got)
	}
	// Second observation folds in at alpha=0.2: 0.8*10 + 0.2*0 = 8.
	e.Observe(0)
	if got := e.Seconds(); math.Abs(got-8) > 1e-9 {
		t.Fatalf("after 0s observation: %v, want 8", got)
	}
	// 0.8*8 + 0.2*3 = 7.
	e.Observe(3 * time.Second)
	if got := e.Seconds(); math.Abs(got-7) > 1e-9 {
		t.Fatalf("after 3s observation: %v, want 7", got)
	}
}

func TestRetryAfterSecondsClamps(t *testing.T) {
	cases := []struct {
		observe time.Duration
		want    int
	}{
		{0, 1},                       // never observed → floor
		{50 * time.Millisecond, 1},   // sub-second → floor 1
		{1400 * time.Millisecond, 2}, // rounds up
		{7 * time.Second, 7},
		{5 * time.Minute, 30}, // cap
	}
	for _, tc := range cases {
		var e durationEWMA
		if tc.observe > 0 {
			e.Observe(tc.observe)
		}
		if got := e.retryAfterSeconds(); got != tc.want {
			t.Errorf("retryAfterSeconds after %v = %d, want %d", tc.observe, got, tc.want)
		}
	}
}

// TestRetryAfterHeaderTracksEWMA pins the header end to end: a server
// whose stream EWMA says 7s must send Retry-After: 7 on 429, and a fresh
// server must send the 1s floor.
func TestRetryAfterHeaderTracksEWMA(t *testing.T) {
	mux, srv := testMuxServer(t, Config{MaxStreams: 1})
	id := registerPhones(t, mux)

	check := func(want int) {
		t.Helper()
		// Hold the only slot, then trigger a rejection.
		release, ok := srv.admission.Admit()
		if !ok {
			t.Fatal("could not hold the slot")
		}
		defer release()
		rec, _ := request(t, mux, "POST", "/v1/programs/"+id+"/apply/stream", "x\n")
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", rec.Code)
		}
		got, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil || got != want {
			t.Fatalf("Retry-After = %q, want %d", rec.Header().Get("Retry-After"), want)
		}
	}

	check(1) // fresh server: floor
	srv.streamEWMA.Observe(7 * time.Second)
	check(7) // tracks the EWMA
	for i := 0; i < 40; i++ {
		srv.streamEWMA.Observe(10 * time.Minute)
	}
	check(30) // cap
}

// testMuxServer is testMux over a server built from cfg, exposing the
// server for EWMA/admission poking.
func testMuxServer(t *testing.T, cfg Config) (http.Handler, *server) {
	t.Helper()
	st, err := progstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, cfg)
	return srv.handler(), srv
}

// stat reads one /v1/stats value of srv through the registries both
// /v1/stats and /metrics render.
func stat(srv *server, key string) int64 {
	for _, reg := range srv.registries() {
		if v, ok := reg.Stats()[key]; ok {
			return v
		}
	}
	return 0
}
