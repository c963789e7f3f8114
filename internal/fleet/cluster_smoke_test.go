// Cluster smoke: one fixed, fully deterministic workload through a
// 2-node in-process cluster, reconciled counter-by-counter. Nothing here
// is a floor or a tolerance — every ledger entry (replication ships,
// follower applies, proxy picks, per-node admission decisions) must
// account exactly for what the client observed, which is what `make
// cluster-smoke` gates on.
package fleet_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"clx/internal/fleet/fleettest"
)

// smokeStats is the slice of a node's /v1/stats this test reconciles.
type smokeStats struct {
	Admission struct {
		Admitted int64 `json:"admitted"`
		Rejected int64 `json:"rejected"`
		InFlight int64 `json:"in_flight"`
	} `json:"admission"`
	Replication struct {
		LastIdx            int64 `json:"last_idx"`
		RecordsApplied     int64 `json:"records_applied"`
		SnapshotsInstalled int64 `json:"snapshots_installed"`
	} `json:"replication"`
}

func nodeStats(t *testing.T, baseURL string) smokeStats {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st smokeStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestClusterSmoke(t *testing.T) {
	c := fleettest.New(t, fleettest.Options{Nodes: 2})

	const (
		registers = 8
		deletes   = 2
		applies   = 6
		streams   = 4
	)
	post := func(path, body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(c.URL()+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, string(raw)
	}

	// Fixed workload, no randomness: ids, rows, and request order are all
	// literals, so every counter below has exactly one right value.
	for i := 0; i < registers; i++ {
		resp, raw := post("/v1/programs", fmt.Sprintf(
			`{"rows":["(734) 645-8397","(734)586-7252","734.236.3466"],`+
				`"target":"<D>3'-'<D>3'-'<D>4","id":"smoke-%02d"}`, i))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	for i := 0; i < deletes; i++ {
		req, _ := http.NewRequest("DELETE", c.URL()+fmt.Sprintf("/v1/programs/smoke-%02d", i), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delete %d: status %d", i, resp.StatusCode)
		}
	}
	var applyOK int
	for i := 0; i < applies; i++ {
		resp, raw := post("/v1/programs/smoke-07/apply", `{"rows":["(313) 263-1192"]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("apply %d: status %d: %s", i, resp.StatusCode, raw)
		}
		applyOK++
	}
	var streamOK, stream429 int
	for i := 0; i < streams; i++ {
		resp, raw := post("/v1/programs/smoke-07/apply/stream?chunk=2", "(313) 263-1192\n555.955.1234\n")
		switch resp.StatusCode {
		case http.StatusOK:
			streamOK++
		case http.StatusTooManyRequests:
			stream429++
		default:
			t.Fatalf("stream %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	if streamOK != streams {
		t.Fatalf("streams: %d ok, %d rejected; a sequential fixed workload must all be admitted",
			streamOK, stream429)
	}

	// Replication ledger: every write shipped, every ship applied, no
	// resyncs, no errors, zero lag — and identical registry fingerprints.
	const walRecords = registers + deletes
	rs := c.Repl.Stats()
	if rs.LeaderIdx != walRecords {
		t.Fatalf("leader idx %d, want %d", rs.LeaderIdx, walRecords)
	}
	f := rs.Followers[0]
	if f.AckedIdx != walRecords || f.Lag != 0 {
		t.Fatalf("follower acked %d lag %d, want %d and 0", f.AckedIdx, f.Lag, walRecords)
	}
	if f.RecordsShipped != walRecords || f.SnapshotsPushed != 0 || f.ShipErrors != 0 {
		t.Fatalf("shipping ledger %+v, want exactly %d records, 0 snapshots, 0 errors", f, walRecords)
	}
	follower := nodeStats(t, c.Nodes[1].URL())
	if follower.Replication.LastIdx != walRecords ||
		follower.Replication.RecordsApplied != walRecords ||
		follower.Replication.SnapshotsInstalled != 0 {
		t.Fatalf("follower replication %+v, want last_idx=records_applied=%d, snapshots 0",
			follower.Replication, walRecords)
	}
	if lf, ff := c.Nodes[0].Store.Fingerprint(), c.Nodes[1].Store.Fingerprint(); lf != ff {
		t.Fatalf("fingerprints diverge: leader %s follower %s", lf, ff)
	}

	// Routing ledger: registry writes always round-trip to the leader;
	// the 10 routed requests alternate round-robin starting at node 0.
	ps := c.Proxy.Stats()
	if ps.Retries != 0 || ps.StreamUpstreamFailures != 0 {
		t.Fatalf("proxy retries=%d upstream failures=%d, want 0 and 0",
			ps.Retries, ps.StreamUpstreamFailures)
	}
	routed := applies + streams
	wantPicks := []int64{int64(registers + deletes + routed/2), int64(routed / 2)}
	for i, b := range ps.Backends {
		if b.Picks != wantPicks[i] {
			t.Fatalf("node %d picks %d, want %d (stats %+v)", i, b.Picks, wantPicks[i], ps)
		}
		if b.LocalInFlight != 0 {
			t.Fatalf("node %d local in-flight %d after quiesce, want 0", i, b.LocalInFlight)
		}
	}

	// Admission ledger: the nodes' own admitted/rejected counters must sum
	// to exactly the stream responses the client saw.
	leader := nodeStats(t, c.Nodes[0].URL())
	gotAdmitted := leader.Admission.Admitted + follower.Admission.Admitted
	gotRejected := leader.Admission.Rejected + follower.Admission.Rejected
	if gotAdmitted != int64(streamOK) || gotRejected != int64(stream429) {
		t.Fatalf("admission admitted=%d rejected=%d, want %d and %d",
			gotAdmitted, gotRejected, streamOK, stream429)
	}
	if leader.Admission.InFlight != 0 || follower.Admission.InFlight != 0 {
		t.Fatalf("in-flight gauges %d/%d after quiesce, want 0/0",
			leader.Admission.InFlight, follower.Admission.InFlight)
	}

	// The Prometheus surfaces exist on both tiers: the proxy serves its
	// own routing counters, the nodes their replication counters and
	// admission gauge. (Replication and proxy series are process-global
	// across in-process fixtures, so here the series just have to be
	// exposed; the admission ledger above is per node on both endpoints.)
	mustExpose := func(baseURL, series string) {
		t.Helper()
		resp, err := http.Get(baseURL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if !strings.Contains(string(raw), series) {
			t.Fatalf("%s/metrics does not expose %s", baseURL, series)
		}
	}
	mustExpose(c.URL(), "clx_proxy_routed_total")
	mustExpose(c.Nodes[0].URL(), "clx_repl_records_shipped_total")
	mustExpose(c.Nodes[1].URL(), "clx_streams_in_flight")
}
