// Package fleettest runs a whole CLX cluster — N clxd nodes, a
// leader-side WAL replicator, and a routing proxy — inside one test
// process over httptest servers. No ports are chosen by the fixture
// (httptest binds :0 and the kernel picks), no subprocesses are spawned,
// and every node's store lives in its own temp directory, so fixtures
// are cheap enough for the differential parity harness to sweep every
// routing policy × node count and race-clean under -race -count=5.
//
// Topology: node 0 is the leader — the proxy sends it every registry
// write, and its replicator ships the resulting WAL records to nodes
// 1..N-1 before the write is acknowledged. Reads and applies are routed
// across all nodes by the configured policy.
package fleettest

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"clx/internal/daemon"
	"clx/internal/fleet"
	"clx/internal/fleet/routing"
	"clx/internal/progstore"
)

// Options tune a test cluster; the zero value is 2 nodes, round-robin,
// local-only load accounting.
type Options struct {
	// Nodes is the cluster size (including the leader); 0 means 2.
	Nodes int
	// Policy is the routing policy name ("" = round-robin).
	Policy string
	// ProbeTTL is passed to the proxy; 0 keeps scraping off (negative
	// TTL), so tests are deterministic unless they opt in.
	ProbeTTL time.Duration
	// MaxStreams caps each node's concurrent streaming applies (0 = the
	// daemon default).
	MaxStreams int
	// Durable gives each node an on-disk store (WAL + snapshot in a temp
	// dir) so a killed node recovers state on restart; false keeps
	// registries in memory, which is faster for pure parity sweeps.
	Durable bool
}

// Node is one in-process clxd.
type Node struct {
	Dir    string // store directory ("" when in-memory)
	Store  *progstore.Store
	Server *daemon.Server
	HTTP   *httptest.Server
}

// URL is the node's base URL.
func (n *Node) URL() string { return n.HTTP.URL }

// Cluster is the running fixture.
type Cluster struct {
	t     testing.TB
	opts  Options
	Nodes []*Node
	// Repl is the leader's shipper (nil for a 1-node cluster).
	Repl  *fleet.Replicator
	Proxy *fleet.Proxy
	// Front serves the proxy; Front.URL is what clients hit.
	Front *httptest.Server
}

// New starts a cluster and registers its teardown with t.Cleanup.
func New(t testing.TB, opts Options) *Cluster {
	t.Helper()
	if opts.Nodes <= 0 {
		opts.Nodes = 2
	}
	pol, err := routing.New(opts.Policy)
	if err != nil {
		t.Fatalf("fleettest: %v", err)
	}
	c := &Cluster{t: t, opts: opts}

	// Followers first: the leader's replicator needs their URLs before
	// the leader's server can exist.
	c.Nodes = make([]*Node, opts.Nodes)
	for i := 1; i < opts.Nodes; i++ {
		st, dir := c.openStore(i)
		c.Nodes[i] = c.serveNode(i, st, dir, nil)
	}
	leaderStore, leaderDir := c.openStore(0)
	if opts.Nodes > 1 {
		var urls []string
		for _, n := range c.Nodes[1:] {
			urls = append(urls, n.URL())
		}
		c.Repl = fleet.NewReplicator(leaderStore, urls, fleet.ReplicatorOptions{
			Client: &http.Client{Timeout: 5 * time.Second},
		})
	}
	c.Nodes[0] = c.serveNode(0, leaderStore, leaderDir, c.Repl)

	ttl := opts.ProbeTTL
	if ttl == 0 {
		ttl = -1 // deterministic by default: local in-flight only
	}
	var urls []string
	for _, n := range c.Nodes {
		urls = append(urls, n.URL())
	}
	c.Proxy, err = fleet.NewProxy(urls, fleet.ProxyOptions{Policy: pol, ProbeTTL: ttl})
	if err != nil {
		t.Fatalf("fleettest: %v", err)
	}
	c.Front = httptest.NewServer(c.Proxy)

	t.Cleanup(c.Close)
	return c
}

// openStore opens node i's registry — on disk under a temp dir when the
// cluster is durable, in memory otherwise.
func (c *Cluster) openStore(i int) (*progstore.Store, string) {
	c.t.Helper()
	dir := ""
	if c.opts.Durable {
		dir = filepath.Join(c.t.TempDir(), fmt.Sprintf("node-%d", i))
	}
	st, err := progstore.Open(dir)
	if err != nil {
		c.t.Fatalf("fleettest: node %d store: %v", i, err)
	}
	return st, dir
}

// serveNode wraps a store in a daemon server and serves it; repl is
// non-nil only for the leader.
func (c *Cluster) serveNode(i int, st *progstore.Store, dir string, repl *fleet.Replicator) *Node {
	c.t.Helper()
	srv := daemon.New(st, daemon.Config{
		MaxStreams: c.opts.MaxStreams,
		Replicator: repl,
	})
	return &Node{Dir: dir, Store: st, Server: srv, HTTP: httptest.NewServer(srv.Handler())}
}

// URL is the cluster's client-facing base URL (the proxy).
func (c *Cluster) URL() string { return c.Front.URL }

// Leader is node 0.
func (c *Cluster) Leader() *Node { return c.Nodes[0] }

// Kill simulates a crash of node i: its listener closes and every open
// connection (including mid-stream responses) is severed. The node's
// store object is abandoned un-closed — nothing graceful happens, which
// is the point; a durable store's WAL stays as the crash left it.
func (c *Cluster) Kill(i int) {
	c.t.Helper()
	c.Nodes[i].HTTP.CloseClientConnections()
	c.Nodes[i].HTTP.Close()
}

// Restart brings a killed node back on a fresh address, recovering a
// durable store from its snapshot + WAL (the crash-recovery path), and
// repoints the leader's replicator and the proxy at the new address.
// Restarting the leader is not supported — the fault suite kills
// followers and routed nodes, not the replication source.
func (c *Cluster) Restart(i int) {
	c.t.Helper()
	if i == 0 {
		c.t.Fatalf("fleettest: leader restart not supported")
	}
	old := c.Nodes[i]
	var st *progstore.Store
	if old.Dir != "" {
		// Recover from disk exactly as a restarted clxd would.
		var err error
		st, err = progstore.Open(old.Dir)
		if err != nil {
			c.t.Fatalf("fleettest: node %d reopen: %v", i, err)
		}
	} else {
		// In-memory node: state died with the process; the replicator's
		// snapshot resync must rebuild it.
		var err error
		st, err = progstore.Open("")
		if err != nil {
			c.t.Fatalf("fleettest: node %d reopen: %v", i, err)
		}
	}
	srv := daemon.New(st, daemon.Config{MaxStreams: c.opts.MaxStreams})
	n := &Node{Dir: old.Dir, Store: st, Server: srv}
	n.HTTP = httptest.NewServer(srv.Handler())
	c.Nodes[i] = n
	if c.Repl != nil {
		c.Repl.SetFollowerURL(i-1, n.URL())
	}
	c.Proxy.SetBackendURL(i, n.URL())
}

// Converge drives replication until every follower holds the leader's
// log position, then asserts fingerprint equality across all nodes.
func (c *Cluster) Converge(timeout time.Duration) {
	c.t.Helper()
	if c.Repl != nil {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		if err := c.Repl.Sync(ctx); err != nil {
			c.t.Fatalf("fleettest: %v\nreplicator: %+v", err, c.Repl.Stats())
		}
	}
	want := c.Nodes[0].Store.Fingerprint()
	for i, n := range c.Nodes[1:] {
		if got := n.Store.Fingerprint(); got != want {
			c.t.Fatalf("fleettest: node %d fingerprint %s != leader %s", i+1, got, want)
		}
	}
}

// Close tears the cluster down: proxy first (no new routed requests),
// then the replicator (detaches the store hook), then every node.
func (c *Cluster) Close() {
	c.Front.Close()
	if c.Repl != nil {
		c.Repl.Close()
		c.Repl = nil
	}
	for _, n := range c.Nodes {
		n.HTTP.Close()
		n.Store.Close()
	}
	c.Nodes = nil
}
