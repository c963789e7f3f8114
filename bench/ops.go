// Requests and the four workloads that sequence them. Every request is
// fully described up front — method, path, body, and the parsed inputs
// the in-process mirror and the oracle need — so the HTTP run, the
// traced replay and the verifier all walk the same list.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"clx/internal/benchsuite"
	"clx/internal/dataset"
	"clx/internal/loadgen"
	"clx/internal/simuser"
)

type opKind uint8

const (
	opApply opKind = iota
	opStream
	opRegister
	opCreate
	opClusters
	opAppend
	opLabel
	opRepair
	opCommit
	opDelete
)

var opNames = [...]string{"apply", "stream", "register", "create", "clusters",
	"append", "label", "repair", "commit", "delete"}

func (k opKind) String() string { return opNames[k] }

// wantStatus is the status a successful request of each kind answers.
func (k opKind) wantStatus() int {
	switch k {
	case opRegister, opCreate, opCommit:
		return http.StatusCreated
	default:
		return http.StatusOK
	}
}

// Latency classes: each workload names one light and one heavy
// operation, reported as light_p50_ms and heavy_p50_ms.
const (
	classNone = iota
	classLight
	classHeavy
)

// op is one request.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte
	prog   string   // program id: apply, stream, register, commit
	sess   string   // session id (pinned with X-Session-ID at create)
	rows   []string // apply, stream, register, create and append payload
	target string   // register and label
	col    *column  // the column a session op belongs to
	class  int
}

// phoneTarget is the §7.2 study target.
const phoneTarget = "<D>3'-'<D>3'-'<D>4"

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only string slices and strings are marshalled
	}
	return b
}

type rowsBody struct {
	Rows []string `json:"rows"`
}

func applyOp(prog string, rows []string) *op {
	return &op{kind: opApply, method: http.MethodPost, path: "/v1/programs/" + prog + "/apply",
		body: mustJSON(rowsBody{rows}), prog: prog, rows: rows}
}

func streamOp(prog string, rows []string) *op {
	return &op{kind: opStream, method: http.MethodPost, path: "/v1/programs/" + prog + "/apply/stream",
		body: []byte(strings.Join(rows, "\n") + "\n"), prog: prog, rows: rows}
}

func registerOp(id string, rows []string, target string) *op {
	body := mustJSON(struct {
		Rows   []string `json:"rows"`
		Target string   `json:"target"`
		ID     string   `json:"id"`
	}{rows, target, id})
	return &op{kind: opRegister, method: http.MethodPost, path: "/v1/programs",
		body: body, prog: id, rows: rows, target: target}
}

// column is one wrangle session's input: a suite task or a phone column.
type column struct {
	id     string   // the program id the session commits
	target string   // the pattern the user labels
	rows   []string // the uploaded column
	extra  []string // rows appended before labeling
	// sources is how many source patterns labeling finds; the repair
	// request is only sent when there is a source 0.
	sources int
}

// suiteColumns are the 47 benchmark-suite tasks, each labeled with the
// target a simulated user picks from the desired outputs.
func suiteColumns() []*column {
	var out []*column
	for _, t := range benchsuite.Tasks() {
		tgt := simuser.SelectTargets(t.Inputs, t.Outputs)[0]
		out = append(out, &column{id: t.Name, target: tgt.String(), rows: t.Inputs})
	}
	return out
}

// phoneColumn is a six-format phone column of n rows plus extra appended
// rows: the large interactive session.
func phoneColumn(n, extra int, seed int64) *column {
	rows, _ := dataset.Phones(n, 6, seed)
	more, _ := dataset.Phones(extra, 6, seed+1)
	return &column{id: "phone", target: phoneTarget, rows: rows, extra: more}
}

// sessionOps is the interactive loop over one column: create → clusters
// → (append) → label → repair candidates for source 0 → commit under the
// column's id → apply the committed program → delete.
func sessionOps(col *column, sess string, class int) []*op {
	base := "/v1/sessions/" + sess
	mk := func(kind opKind, method, path string, body []byte) *op {
		return &op{kind: kind, method: method, path: path, body: body, sess: sess,
			prog: col.id, col: col, class: class}
	}
	ops := []*op{mk(opCreate, http.MethodPost, "/v1/sessions", mustJSON(rowsBody{col.rows})),
		mk(opClusters, http.MethodGet, base+"/clusters", nil)}
	ops[0].rows = col.rows
	if len(col.extra) > 0 {
		a := mk(opAppend, http.MethodPost, base+"/append", mustJSON(rowsBody{col.extra}))
		a.rows = col.extra
		ops = append(ops, a)
	}
	l := mk(opLabel, http.MethodPost, base+"/label", mustJSON(struct {
		Target string `json:"target"`
	}{col.target}))
	l.target = col.target
	ops = append(ops, l)
	if col.sources > 0 {
		ops = append(ops, mk(opRepair, http.MethodGet, base+"/repair?source=0", nil))
	}
	ops = append(ops, mk(opCommit, http.MethodPost, base+"/commit", mustJSON(struct {
		ID string `json:"id"`
	}{col.id})))
	a := applyOp(col.id, col.rows)
	a.col, a.sess, a.class = col, sess, class
	ops = append(ops, a)
	return append(ops, mk(opDelete, http.MethodDelete, base, nil))
}

// plan is one workload's request sequence. The open-loop phase sends
// open[i] at offset at[i]; the closed-loop phase cycles through closed
// until its time is up. Both use conns connections.
type plan struct {
	open      []*op
	at        []time.Duration
	closed    []*op
	conns     int
	closedFor time.Duration
	fleet     bool
	// keepEvery keeps every n-th closed-loop JSON response for the oracle
	// (1 keeps all), bounding memory at high request rates.
	keepEvery int
	// replay is how many requests from the start of the run the traced
	// replay mirrors.
	replay int
}

// workload is one entry of BENCHMARK.json.
type workload struct {
	name  string
	build func(cfg *config, fx *fixture) *plan
}

var workloads = []workload{
	{"serve-mix", func(cfg *config, fx *fixture) *plan { return servePlan(cfg, fx, false) }},
	{"fleet-mix", func(cfg *config, fx *fixture) *plan { return servePlan(cfg, fx, true) }},
	{"bulk-stream", bulkPlan},
	{"wrangle", wranglePlan},
}

// servePlan: open-loop Poisson arrivals, then a closed loop over the same
// requests. The mix is apply:stream:register 8:2:1 at 20–200 rows.
// Applies and streams pick a fixture program by Zipf(1.1) — the phone
// program is the most popular — and send rows of that program's own
// input, so the noise rows of each task drift; phone requests carry
// seven formats against the program's six. Registers re-register phone
// programs over 16 fixed ids, so the registry stays bounded while the
// WAL, fsync and compaction keep running.
func servePlan(cfg *config, fx *fixture, fleet bool) *plan {
	sz := cfg.sizes
	openFor := time.Duration(float64(cfg.seconds) * sz.openShare)
	n := int(sz.rate * openFor.Seconds())
	proc, err := loadgen.ProcessFor("poisson", sz.rate, n, cfg.seed, loadgen.BurstShape{})
	if err != nil {
		panic(err) // "poisson" is a known process
	}
	r := rand.New(rand.NewSource(cfg.seed))
	zipf := rand.NewZipf(r, 1.1, 1, uint64(len(fx.ids)-1))
	p := &plan{conns: conns, closedFor: cfg.seconds - openFor, fleet: fleet, keepEvery: 4}
	// Ops are dealt from a shuffled deck of 8 applies, 2 streams and 1
	// register, so every seed sends the mix in exactly its proportions.
	deck := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for i := 0; ; i++ {
		at, ok := proc.Next()
		if !ok {
			break
		}
		if i%len(deck) == 0 {
			r.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		rows := 20 + r.Intn(181)
		var o *op
		switch k := deck[i%len(deck)]; {
		case k < 10:
			id := fx.ids[zipf.Uint64()]
			var payload []string
			if id == "phone" {
				payload, _ = dataset.Phones(rows, 7, r.Int63())
			} else {
				in := fx.cols[id].rows
				payload = make([]string, rows)
				for j := range payload {
					payload[j] = in[r.Intn(len(in))]
				}
			}
			if k < 8 {
				o = applyOp(id, payload)
				o.class = classLight
			} else {
				o = streamOp(id, payload)
			}
		default:
			payload, _ := dataset.Phones(rows, 6, r.Int63())
			o = registerOp(fmt.Sprintf("reg-%02d", i%16), payload, phoneTarget)
			o.class = classHeavy
		}
		p.open = append(p.open, o)
		p.at = append(p.at, at)
	}
	p.closed = p.open
	p.replay = min(cfg.sizes.replayReqs, len(p.open))
	return p
}

// bulkPlan: closed loop over two streams of seven-format phone rows
// against the phone program, a small and a large body alternating.
func bulkPlan(cfg *config, _ *fixture) *plan {
	small, _ := dataset.Phones(cfg.sizes.bulkSmall, 7, cfg.seed)
	large, _ := dataset.Phones(cfg.sizes.bulkLarge, 7, cfg.seed+1)
	s, l := streamOp("phone", small), streamOp("phone", large)
	s.class, l.class = classLight, classHeavy
	return &plan{closed: []*op{s, l}, conns: 1, closedFor: cfg.seconds, keepEvery: 1,
		replay: cfg.sizes.replayBodies}
}

// wranglePlan: one waiting user runs the interactive loop over every
// suite column and one large phone column per pass, passes cycling over
// a few distinct phone columns drawn from the seed.
func wranglePlan(cfg *config, fx *fixture) *plan {
	p := &plan{conns: 1, closedFor: cfg.seconds, keepEvery: 1}
	group := 0
	for pass := 0; pass < cfg.sizes.passes; pass++ {
		phone := phoneColumn(cfg.sizes.phoneRows, cfg.sizes.appendRows, cfg.seed*7919+int64(pass))
		phone.sources = fx.cols["phone"].sources
		for _, id := range fx.ids {
			col, class := fx.cols[id], classLight
			if id == "phone" {
				col, class = phone, classHeavy
			}
			p.closed = append(p.closed, sessionOps(col, fmt.Sprintf("s%d-%d", pass, group), class)...)
			group++
		}
	}
	p.replay = len(p.closed) / cfg.sizes.passes * cfg.sizes.replayPasses
	return p
}
