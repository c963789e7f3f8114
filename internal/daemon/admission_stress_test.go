// Admission under real concurrency: N held slots, M > N simultaneous
// streams over a live HTTP server, and exact accounting afterwards —
// every request is either admitted or rejected (admitted + rejected ==
// fired), the client-observed 200/429 split matches the server counters
// exactly, the in-flight gauge returns to zero, and a client that
// disconnects mid-stream gives its slot back. Run under -race by the
// race tier of make gate.
package daemon

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"clx/internal/progstore"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// startStressServer builds a live HTTP server over the daemon handler
// with the given admission slots and returns the server, its base URL
// and a registered program.
func startStressServer(t *testing.T, slots int) (srv *server, baseURL, programID string) {
	t.Helper()
	st, err := progstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	srv = New(st, Config{MaxStreams: slots})
	hs := httptest.NewServer(srv.handler())
	t.Cleanup(hs.Close)
	mux := srv.handler()
	return srv, hs.URL, registerPhones(t, mux)
}

func TestAdmissionStressExactAccounting(t *testing.T) {
	const slots = 4
	const contenders = 24
	srv, baseURL, id := startStressServer(t, slots)
	streamURL := baseURL + "/v1/programs/" + id + "/apply/stream"
	client := &http.Client{}

	admitted0, rejected0 := stat(srv, "admission.admitted"), stat(srv, "admission.rejected")

	// Phase 1: pin all N slots with held-open streams. Each holder runs
	// in its own goroutine (headers may not flush to the client until the
	// stream makes progress) and reports its final outcome on a channel;
	// the in-flight gauge is the synchronization point.
	holderDone := make(chan error, slots)
	var holderBodies []*io.PipeWriter
	for i := 0; i < slots; i++ {
		pr, pw := io.Pipe()
		holderBodies = append(holderBodies, pw)
		go func(i int) {
			resp, err := client.Post(streamURL, "text/plain", pr)
			if err != nil {
				holderDone <- fmt.Errorf("holder %d: %v", i, err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case err != nil:
				holderDone <- fmt.Errorf("holder %d drain: %v", i, err)
			case resp.StatusCode != http.StatusOK:
				holderDone <- fmt.Errorf("holder %d status %d", i, resp.StatusCode)
			case !strings.Contains(string(body), `"done":true`):
				holderDone <- fmt.Errorf("holder %d stream did not finish cleanly: %s", i, body)
			default:
				holderDone <- nil
			}
		}(i)
	}
	waitFor(t, "all slots held", func() bool { return stat(srv, "admission.in_flight") == slots })

	// Phase 2: M concurrent contenders against a full semaphore — every
	// one must come back 429, and the server must count each decision.
	var wg sync.WaitGroup
	statuses := make([]int, contenders)
	errs := make([]error, contenders)
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Post(streamURL, "text/plain", strings.NewReader("(313) 263-1192\n"))
			if err != nil {
				errs[i] = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	var got429 int
	for i := 0; i < contenders; i++ {
		if errs[i] != nil {
			t.Fatalf("contender %d transport error: %v", i, errs[i])
		}
		if statuses[i] == http.StatusTooManyRequests {
			got429++
		} else {
			t.Errorf("contender %d status %d, want 429 (all slots held)", i, statuses[i])
		}
	}

	// Phase 3: release the holders and collect their outcomes.
	for _, pw := range holderBodies {
		if _, err := pw.Write([]byte("(313) 263-1192\n")); err != nil {
			t.Fatal(err)
		}
		pw.Close()
	}
	for i := 0; i < slots; i++ {
		if err := <-holderDone; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "slots all released", func() bool { return stat(srv, "admission.in_flight") == 0 })

	// Exact accounting: fired = holders + contenders, every one counted
	// on exactly one side, and the sides match what clients observed.
	admittedD := stat(srv, "admission.admitted") - admitted0
	rejectedD := stat(srv, "admission.rejected") - rejected0
	fired := int64(slots + contenders)
	if admittedD+rejectedD != fired {
		t.Errorf("admitted %d + rejected %d != fired %d", admittedD, rejectedD, fired)
	}
	if admittedD != int64(slots) {
		t.Errorf("admitted = %d, want %d (the holders)", admittedD, slots)
	}
	if rejectedD != int64(got429) {
		t.Errorf("rejected = %d, client-observed 429s = %d", rejectedD, got429)
	}
}

// TestAdmissionContendedMix fires M concurrent streams with nothing held:
// some are admitted, some rejected, and accounting still reconciles
// exactly with the client-observed 200/429 split.
func TestAdmissionContendedMix(t *testing.T) {
	const contenders = 32
	srv, baseURL, id := startStressServer(t, 2)
	streamURL := baseURL + "/v1/programs/" + id + "/apply/stream"
	client := &http.Client{}

	admitted0, rejected0 := stat(srv, "admission.admitted"), stat(srv, "admission.rejected")
	var wg sync.WaitGroup
	statuses := make([]int, contenders)
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A multi-row body so streams overlap long enough to contend.
			body := strings.Repeat("(313) 263-1192\n", 200)
			resp, err := client.Post(streamURL, "text/plain", strings.NewReader(body))
			if err != nil {
				statuses[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	var ok200, got429 int
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			got429++
		default:
			t.Fatalf("contender %d status %d", i, st)
		}
	}
	if ok200+got429 != contenders {
		t.Fatalf("200s %d + 429s %d != %d", ok200, got429, contenders)
	}
	if ok200 == 0 {
		t.Error("no stream was admitted at all")
	}
	admittedD := stat(srv, "admission.admitted") - admitted0
	rejectedD := stat(srv, "admission.rejected") - rejected0
	if admittedD != int64(ok200) || rejectedD != int64(got429) {
		t.Errorf("server admitted/rejected = %d/%d, clients observed %d/%d",
			admittedD, rejectedD, ok200, got429)
	}
	waitFor(t, "in-flight back to zero", func() bool { return stat(srv, "admission.in_flight") == 0 })
}

// TestAdmissionSlotReleasedOnDisconnect cancels a client mid-stream and
// checks the slot comes back: the gauge returns to zero and a follow-up
// stream over a 1-slot server is admitted.
func TestAdmissionSlotReleasedOnDisconnect(t *testing.T) {
	srv, baseURL, id := startStressServer(t, 1)
	streamURL := baseURL + "/v1/programs/" + id + "/apply/stream"
	client := &http.Client{}

	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, "POST", streamURL, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	clientGone := make(chan struct{})
	go func() {
		defer close(clientGone)
		resp, err := client.Do(req)
		if err != nil {
			return // cancellation is the expected outcome
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if _, err := pw.Write([]byte("(313) 263-1192\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream holding the slot", func() bool { return stat(srv, "admission.in_flight") == 1 })

	// Client walks away mid-stream.
	cancel()
	pw.CloseWithError(fmt.Errorf("client gone"))
	<-clientGone
	waitFor(t, "slot released after disconnect", func() bool { return stat(srv, "admission.in_flight") == 0 })

	// The single slot is usable again.
	resp2, err := client.Post(streamURL, "text/plain", strings.NewReader("(313) 263-1192\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || !strings.Contains(string(body), `"done":true`) {
		t.Fatalf("post-disconnect stream: status %d body %s", resp2.StatusCode, body)
	}
}
