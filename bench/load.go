// The load generator: one process, at most nproc workers, each with its
// own HTTP client holding a single connection. Open-loop latency runs
// from each request's due time, so time spent waiting for a free
// connection counts; the generator's own timer overshoot is measured and
// subtracted. In a closed loop a request is due the moment its worker's
// previous reply completed.
package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request's outcome; times are offsets from phase start.
type sample struct {
	op  int // index into the phase's op list
	seq int // position in the phase's send order
	id  string
	// due is when the request should have been sent; late is how far
	// the generator's timer overshot it (open loop) or how long the
	// worker took to send after its previous reply (closed loop).
	due, late, sent, done time.Duration
	status                int
	err                   string
	body                  []byte // kept JSON response body
	// Streams are hashed as they arrive instead of kept: CRC-32C and
	// count of the data frames, and the final (trailer) frame.
	crc     uint32
	frames  int
	trailer []byte
}

// latency is due-to-done minus the generator's own lateness.
func (s *sample) latency() time.Duration { return s.done - s.due - s.late }

// service is send-to-done: the time the SUT held the request.
func (s *sample) service() time.Duration { return s.done - s.sent }

func (s *sample) ok(o *op) bool { return s.err == "" && s.status == o.kind.wantStatus() }

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type generator struct {
	base    string
	clients []*http.Client
	dials   atomic.Int64
}

func newGenerator(base string, conns int) *generator {
	g := &generator{base: base}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	for i := 0; i < conns; i++ {
		tr := &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				g.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}
		g.clients = append(g.clients, &http.Client{Transport: tr, Timeout: 2 * time.Minute})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// send issues o and fills the outcome fields of s.
func (g *generator) send(c *http.Client, o *op, s *sample, start time.Time, keep bool) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, g.base+o.path, body)
	if err != nil {
		s.err = err.Error()
		return
	}
	req.Header.Set("X-Request-ID", s.id)
	if o.kind == opCreate {
		req.Header.Set("X-Session-ID", o.sess)
	}
	if o.kind == opStream {
		req.Header.Set("Content-Type", "text/plain")
	} else if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	s.sent = time.Since(start)
	resp, err := c.Do(req)
	if err != nil {
		s.done = time.Since(start)
		s.err = err.Error()
		return
	}
	s.status = resp.StatusCode
	if o.kind == opStream && resp.StatusCode == http.StatusOK {
		err = readStream(resp.Body, s)
	} else if keep {
		s.body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	s.done = time.Since(start)
	if err != nil {
		s.err = err.Error()
	}
}

// readStream hashes the NDJSON data frames (JSON strings) and keeps the
// final object frame.
func readStream(r io.Reader, s *sample) error {
	// The trailer lists up to 10k flagged row indices: ~100KB on one line.
	br := bufio.NewReaderSize(r, 1<<20)
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			return fmt.Errorf("stream frame longer than 1MiB")
		}
		if len(line) > 0 {
			if line[0] == '"' {
				s.crc = crc32.Update(s.crc, crcTable, line)
				s.frames++
			} else {
				s.trailer = append(s.trailer[:0], line...)
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// openLoop sends ops[i] at offset at[i], workers taking requests in due
// order. A worker that is early sleeps until the due time; how late it
// woke is recorded and taken out of the latency.
func (g *generator) openLoop(ops []*op, at []time.Duration) []sample {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				s := &samples[i]
				s.op, s.seq, s.id, s.due = i, i, fmt.Sprintf("o%d", i), at[i]
				if wait := at[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
					s.late = time.Since(start) - at[i]
				}
				g.send(c, ops[i], s, start, true)
			}
		}(c)
	}
	wg.Wait()
	return samples
}

// closedLoop cycles through ops on every connection until d has passed
// (each worker finishes the request it holds). Requests are taken from
// one shared sequence, so with one connection they run strictly in
// order. keep(seq) says which JSON bodies to keep for the oracle.
func (g *generator) closedLoop(ops []*op, d time.Duration, keep func(seq int) bool) ([]sample, time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		all  []sample
		wg   sync.WaitGroup
	)
	start := time.Now()
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var mine []sample
			free := time.Since(start)
			for free < d {
				k := int(next.Add(1) - 1)
				s := sample{op: k % len(ops), seq: k, id: fmt.Sprintf("c%d", k), due: free}
				g.send(c, ops[s.op], &s, start, keep(k))
				s.late = s.sent - s.due
				free = s.done
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all, time.Since(start)
}
