// The cluster front: an http.Handler that spreads CLX requests over N
// clxd nodes with a pluggable routing policy. Program-bound applies and
// stateless compute are routed by policy; registry mutations and reads
// go to the leader (node 0), whose daemon replicates them to the
// followers before acknowledging — so the proxy can route the very next
// apply anywhere and the answer is byte-identical to a single node's.
//
// Two transparency guarantees the parity and fault suites pin:
//
//   - Backpressure is the node's, not the proxy's: a 429 from a routed
//     node is forwarded verbatim — same Retry-After header (the node's
//     EWMA-derived hint), same error envelope. For idempotent buffered
//     applies the proxy first retries the remaining nodes; only when
//     every node says 429 does the client see one (the last node's).
//   - A routed node dying mid-stream surfaces as the documented
//     mid-stream error-frame contract, never a hang or a torn line: the
//     proxy forwards NDJSON line-by-line (bytes preserved exactly), and
//     on an upstream failure it drops any partial line and appends a
//     {"done":false,"error":...} frame of its own.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clx/internal/fleet/routing"
	"clx/internal/obs"
)

var (
	mProxyRouted = obs.NewCounter("clx_proxy_routed_total", "",
		"Requests the cluster proxy routed to a backend (policy-picked or leader-pinned).")
	mProxyRetries = obs.NewCounter("clx_proxy_retries_total", "",
		"Idempotent applies retried on another node after a 429 or transport failure.")
	mProxyStreamUpstreamFailures = obs.NewCounter("clx_proxy_stream_upstream_failures_total", "",
		"Streams whose routed node failed mid-response; the proxy synthesized the error frame.")
)

// maxRetryBody caps the buffered body for retryable applies — the same
// 32 MiB the daemon itself accepts, so buffering never admits more than
// a node would.
const maxRetryBody int64 = 32 << 20

// defaultProbeTTL caches a node's scraped in-flight gauge briefly so the
// least-loaded policy does not turn every apply into a stats round trip.
const defaultProbeTTL = 250 * time.Millisecond

// ProxyOptions configure a Proxy.
type ProxyOptions struct {
	// Policy picks the node for routed requests; nil means round-robin.
	Policy routing.Policy
	// Client performs upstream requests; nil uses http.DefaultClient
	// (streams must not carry an overall timeout).
	Client *http.Client
	// ProbeTTL is the scrape cache lifetime for the least-loaded policy;
	// 0 means defaultProbeTTL, negative disables scraping (local in-flight
	// deltas only — what the deterministic tests use).
	ProbeTTL time.Duration
}

// backend is one clxd node as the proxy sees it.
type backend struct {
	id string

	mu  sync.RWMutex
	url string

	// localInFlight counts requests this proxy has routed to the node and
	// not yet seen complete — the freshest load signal available between
	// stats scrapes.
	localInFlight atomic.Int64
	picks         atomic.Int64

	probeMu      sync.Mutex
	probeAt      time.Time
	probeVal     int64
	probeErrors  atomic.Int64
	probeScrapes atomic.Int64
}

func (b *backend) baseURL() string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.url
}

// Proxy is the cluster front handler.
type Proxy struct {
	backends []*backend
	policy   routing.Policy
	client   *http.Client
	probeTTL time.Duration
	retries  atomic.Int64
	streamUp atomic.Int64 // upstream mid-stream failures
}

// NewProxy builds a proxy over the given node base URLs; nodeURLs[0] is
// the leader.
func NewProxy(nodeURLs []string, opts ProxyOptions) (*Proxy, error) {
	if len(nodeURLs) == 0 {
		return nil, fmt.Errorf("fleet: proxy needs at least one node")
	}
	pol := opts.Policy
	if pol == nil {
		pol = &routing.RoundRobin{}
	}
	client := opts.Client
	if client == nil {
		client = http.DefaultClient
	}
	ttl := opts.ProbeTTL
	if ttl == 0 {
		ttl = defaultProbeTTL
	}
	p := &Proxy{policy: pol, client: client, probeTTL: ttl}
	for i, u := range nodeURLs {
		p.backends = append(p.backends, &backend{id: fmt.Sprintf("node-%d", i), url: strings.TrimRight(u, "/")})
	}
	return p, nil
}

// SetBackendURL repoints node i — a restarted in-process node comes back
// on a fresh address.
func (p *Proxy) SetBackendURL(i int, url string) {
	p.backends[i].mu.Lock()
	defer p.backends[i].mu.Unlock()
	p.backends[i].url = strings.TrimRight(url, "/")
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// The proxy's own surface.
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/healthz":
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
		return
	case r.Method == http.MethodGet && r.URL.Path == "/v1/proxy/stats":
		p.handleStats(w)
		return
	case r.Method == http.MethodGet && r.URL.Path == "/metrics":
		// The proxy's own process registry (clx_proxy_routed_total,
		// clx_proxy_retries_total, ...). Node metrics are per-node by
		// nature; scrape the nodes directly, not through the proxy.
		obs.Handler(obs.Default).ServeHTTP(w, r)
		return
	}

	// Interactive sessions are stateful on exactly one node, so session
	// routing is rendezvous-on-session-id regardless of the configured
	// policy. Create decides ownership up front: the proxy mints the id
	// (unless the client pinned one), hands it to the owner via
	// X-Session-ID, and every follow-up request hashes to the same node.
	// Two documented limitations in multi-node clusters: GET /v1/sessions
	// (the list) falls through to the leader below and reports the
	// leader's sessions only, and a session commit registers the program
	// on the session's owner node — only commits owned by the leader
	// replicate to followers (routing follower commits through the leader
	// needs a raw-program registration hop and is future work).
	if r.Method == http.MethodPost && r.URL.Path == "/v1/sessions" {
		id := r.Header.Get("X-Session-ID")
		if id == "" {
			id = "s-" + obs.NewRequestID()
			r.Header.Set("X-Session-ID", id)
		}
		p.forwardTo(w, r, p.backends[p.sessionOwner(id)], nil)
		return
	}
	if id, ok := sessionPath(r); ok {
		p.forwardTo(w, r, p.backends[p.sessionOwner(id)], nil)
		return
	}

	if id, ok := streamPath(r); ok {
		p.serveStream(w, r, id)
		return
	}
	if id, ok := applyPath(r); ok {
		p.serveBuffered(w, r, id)
		return
	}
	if r.Method == http.MethodPost && statelessCompute[r.URL.Path] {
		p.serveBuffered(w, r, "")
		return
	}
	// Everything else — registry mutations and reads, stats, metrics —
	// is the leader's.
	p.forwardTo(w, r, p.backends[0], nil)
}

// statelessCompute are the POST endpoints with no registry state: any
// node computes the same answer, so they are policy-routed too.
var statelessCompute = map[string]bool{
	"/v1/cluster":      true,
	"/v1/transform":    true,
	"/v1/apply":        true,
	"/v1/tables/unify": true,
}

// applyPath matches POST /v1/programs/{id}/apply.
func applyPath(r *http.Request) (string, bool) {
	if r.Method != http.MethodPost {
		return "", false
	}
	id, ok := strings.CutPrefix(r.URL.Path, "/v1/programs/")
	if !ok {
		return "", false
	}
	id, ok = strings.CutSuffix(id, "/apply")
	if !ok || id == "" || strings.Contains(id, "/") {
		return "", false
	}
	return id, true
}

// sessionPath matches /v1/sessions/{id} and /v1/sessions/{id}/<verb>,
// any method.
func sessionPath(r *http.Request) (string, bool) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/sessions/")
	if !ok {
		return "", false
	}
	id, _, _ := strings.Cut(rest, "/")
	return id, id != ""
}

// sessionOwner resolves a session id to its owning node by rendezvous
// hash over the stable backend ids.
func (p *Proxy) sessionOwner(id string) int {
	snap := make([]routing.Backend, len(p.backends))
	for i, b := range p.backends {
		snap[i] = routing.Backend{ID: b.id}
	}
	return routing.Rendezvous(id, snap)
}

// streamPath matches POST /v1/programs/{id}/apply/stream.
func streamPath(r *http.Request) (string, bool) {
	if r.Method != http.MethodPost {
		return "", false
	}
	id, ok := strings.CutPrefix(r.URL.Path, "/v1/programs/")
	if !ok {
		return "", false
	}
	id, ok = strings.CutSuffix(id, "/apply/stream")
	if !ok || id == "" || strings.Contains(id, "/") {
		return "", false
	}
	return id, true
}

// pick snapshots the backends and asks the policy for a node.
func (p *Proxy) pick(programID string) int {
	needLoad := p.policy.Name() == "least-loaded"
	snap := make([]routing.Backend, len(p.backends))
	for i, b := range p.backends {
		load := b.localInFlight.Load()
		if needLoad {
			load += p.scrapeInFlight(b)
		}
		snap[i] = routing.Backend{ID: b.id, InFlight: load}
	}
	i := p.policy.Pick(programID, snap)
	if i < 0 || i >= len(p.backends) {
		i = 0
	}
	return i
}

// scrapeInFlight reads the node's streams-in-flight gauge from
// /v1/stats, cached for probeTTL.
func (p *Proxy) scrapeInFlight(b *backend) int64 {
	if p.probeTTL < 0 {
		return 0
	}
	b.probeMu.Lock()
	defer b.probeMu.Unlock()
	if time.Since(b.probeAt) < p.probeTTL {
		return b.probeVal
	}
	b.probeScrapes.Add(1)
	b.probeAt = time.Now()
	resp, err := p.client.Get(b.baseURL() + "/v1/stats")
	if err != nil {
		b.probeErrors.Add(1)
		return b.probeVal
	}
	defer resp.Body.Close()
	var doc struct {
		Admission struct {
			InFlight int64 `json:"in_flight"`
		} `json:"admission"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&doc); err != nil {
		b.probeErrors.Add(1)
		return b.probeVal
	}
	b.probeVal = doc.Admission.InFlight
	return b.probeVal
}

// serveBuffered routes a JSON request whose body fits in memory — the
// idempotent case, so a 429 or an unreachable node triggers a retry on
// each remaining node before the client hears a failure. The final
// response, success or not, is forwarded verbatim: in particular a 429's
// Retry-After stays the node's own EWMA-derived hint.
func (p *Proxy) serveBuffered(w http.ResponseWriter, r *http.Request, programID string) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRetryBody+1))
	if err != nil {
		writeProxyError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %v", err))
		return
	}
	if int64(len(body)) > maxRetryBody {
		writeProxyError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte cap", maxRetryBody))
		return
	}
	first := p.pick(programID)
	order := make([]int, 0, len(p.backends))
	order = append(order, first)
	for i := range p.backends {
		if i != first {
			order = append(order, i)
		}
	}
	for attempt, i := range order {
		b := p.backends[i]
		if attempt > 0 {
			p.retries.Add(1)
			mProxyRetries.Inc()
		}
		resp, err := p.roundTrip(r, b, bytes.NewReader(body))
		if err != nil {
			if attempt == len(order)-1 {
				writeProxyError(w, http.StatusBadGateway, fmt.Errorf("all nodes unreachable; last: %v", err))
				return
			}
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < len(order)-1 {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		defer resp.Body.Close()
		copyResponse(w, resp)
		return
	}
}

// serveStream routes a streaming apply. The body streams through (no
// buffering, no retry), and the response is forwarded line-by-line so an
// upstream failure can be turned into the documented error frame instead
// of a truncated body.
func (p *Proxy) serveStream(w http.ResponseWriter, r *http.Request, programID string) {
	// Same full-duplex contract as the node itself: the client may still
	// be producing rows while result frames flow back, so the proxy must
	// not let its own server drain the unread request body before
	// releasing response headers. Best-effort, as in the daemon.
	http.NewResponseController(w).EnableFullDuplex()
	b := p.backends[p.pick(programID)]
	resp, err := p.roundTrip(r, b, r.Body)
	if err != nil {
		writeProxyError(w, http.StatusBadGateway, fmt.Errorf("node unreachable: %v", err))
		return
	}
	defer resp.Body.Close()
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		io.Copy(w, resp.Body) // error envelope, not the NDJSON protocol
		return
	}
	flusher, _ := w.(http.Flusher)
	br := newLineForwarder(resp.Body)
	for {
		line, err := br.next()
		if len(line) > 0 {
			if _, werr := w.Write(line); werr != nil {
				return // client gone; nothing left to preserve
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			// The routed node died mid-stream. Any partial line was held
			// back, so the client's last line is this well-formed frame.
			p.streamUp.Add(1)
			mProxyStreamUpstreamFailures.Inc()
			frame, _ := json.Marshal(map[string]any{
				"done":  false,
				"error": fmt.Sprintf("upstream node failed mid-stream: %v", err),
			})
			w.Write(append(frame, '\n'))
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
	}
}

// lineForwarder yields complete newline-terminated lines (newline
// included), holding back a partial tail until its newline arrives. At a
// clean EOF any unterminated tail is released as-is, preserving byte
// identity with the upstream body.
type lineForwarder struct {
	r   io.Reader
	buf []byte
}

func newLineForwarder(r io.Reader) *lineForwarder { return &lineForwarder{r: r} }

// next returns the next chunk of complete lines. On error, held-back
// partial bytes are dropped (err != io.EOF) or flushed (io.EOF).
func (lf *lineForwarder) next() ([]byte, error) {
	chunk := make([]byte, 32<<10)
	for {
		n, err := lf.r.Read(chunk[:cap(chunk)])
		lf.buf = append(lf.buf, chunk[:n]...)
		if i := bytes.LastIndexByte(lf.buf, '\n'); i >= 0 {
			out := lf.buf[:i+1]
			lf.buf = append([]byte(nil), lf.buf[i+1:]...)
			return out, err
		}
		if err == io.EOF {
			out := lf.buf
			lf.buf = nil
			return out, io.EOF
		}
		if err != nil {
			lf.buf = nil // partial line: hold it back forever
			return nil, err
		}
	}
}

// forwardTo proxies one request to a fixed backend verbatim.
func (p *Proxy) forwardTo(w http.ResponseWriter, r *http.Request, b *backend, body io.Reader) {
	if body == nil {
		body = r.Body
	}
	resp, err := p.roundTrip(r, b, body)
	if err != nil {
		writeProxyError(w, http.StatusBadGateway, fmt.Errorf("leader unreachable: %v", err))
		return
	}
	defer resp.Body.Close()
	copyResponse(w, resp)
}

// roundTrip sends r's method/path/query/headers with the given body to
// backend b, counting local in-flight for the duration.
func (p *Proxy) roundTrip(r *http.Request, b *backend, body io.Reader) (*http.Response, error) {
	url := b.baseURL() + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, body)
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, r.Header)
	if req.Header.Get("X-Request-ID") == "" {
		// Mint here so the routed node's access log correlates with ours.
		req.Header.Set("X-Request-ID", obs.NewRequestID())
	}
	b.picks.Add(1)
	mProxyRouted.Inc()
	b.localInFlight.Add(1)
	resp, err := p.client.Do(req)
	if err != nil {
		b.localInFlight.Add(-1)
		return nil, err
	}
	resp.Body = &releaseOnClose{ReadCloser: resp.Body, release: func() { b.localInFlight.Add(-1) }}
	return resp, nil
}

// releaseOnClose decrements the local in-flight count exactly once when
// the response body is closed.
type releaseOnClose struct {
	io.ReadCloser
	once    sync.Once
	release func()
}

func (rc *releaseOnClose) Close() error {
	rc.once.Do(rc.release)
	return rc.ReadCloser.Close()
}

// hop-by-hop headers are never forwarded (RFC 9110 §7.6.1).
var hopByHop = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Authenticate": true,
	"Proxy-Authorization": true, "Te": true, "Trailer": true,
	"Transfer-Encoding": true, "Upgrade": true,
}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		dst[k] = append([]string(nil), vs...)
	}
}

func copyResponse(w http.ResponseWriter, resp *http.Response) {
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func writeProxyError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(map[string]string{"error": err.Error()})
}

// ProxyBackendStats is one node's routing ledger.
type ProxyBackendStats struct {
	ID            string `json:"id"`
	URL           string `json:"url"`
	Picks         int64  `json:"picks"`
	LocalInFlight int64  `json:"local_in_flight"`
	ProbeScrapes  int64  `json:"probe_scrapes"`
	ProbeErrors   int64  `json:"probe_errors"`
}

// ProxyStats is the GET /v1/proxy/stats document.
type ProxyStats struct {
	Policy                 string              `json:"policy"`
	Backends               []ProxyBackendStats `json:"backends"`
	Retries                int64               `json:"retries"`
	StreamUpstreamFailures int64               `json:"stream_upstream_failures"`
}

// Stats snapshots the proxy's routing ledger.
func (p *Proxy) Stats() ProxyStats {
	st := ProxyStats{
		Policy:                 p.policy.Name(),
		Retries:                p.retries.Load(),
		StreamUpstreamFailures: p.streamUp.Load(),
	}
	for _, b := range p.backends {
		st.Backends = append(st.Backends, ProxyBackendStats{
			ID:            b.id,
			URL:           b.baseURL(),
			Picks:         b.picks.Load(),
			LocalInFlight: b.localInFlight.Load(),
			ProbeScrapes:  b.probeScrapes.Load(),
			ProbeErrors:   b.probeErrors.Load(),
		})
	}
	return st
}

func (p *Proxy) handleStats(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(p.Stats())
}
