// One measured run of one workload: build the fixture, start the SUT
// several times (setup_s is the median), drive the plan over HTTP with
// tracing off, check every kept output, and — with tracing on — replay
// the start of the run in-process for the per-layer metrics.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd are the metrics a user of the system sees, printed with
// tracing off. Every workload reports all of them; what its light and
// heavy operations are is in bench/README.md.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"light_p50_ms", "ms"},
	{"heavy_p50_ms", "ms"},
	{"sat_rps", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "allocs"},
}

// run is everything one measured run produced.
type run struct {
	plan         *plan
	open, closed []sample
	closedWall   time.Duration
	setups       []float64
	// cpuTicks and mallocs are the SUT's CPU time and heap allocations
	// over the first phase, which sent cpuOps requests: per-request CPU
	// would otherwise depend on how the requests split between an idle
	// and a saturated server.
	cpuTicks, mallocs, cpuOps int64
	rssMB                     float64
	serverDuration            map[string]time.Duration
	oracle                    *oracle
}

func runOnce(cfg *config, w workload) (result, []string, error) {
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(dir)
	fx, err := buildFixture(cfg, newRecorder(cfg.trace), filepath.Join(dir, "fixture"))
	if err != nil {
		return result{}, nil, err
	}
	r := &run{plan: w.build(cfg, fx)}
	if err := r.measure(cfg, fx, dir); err != nil {
		return result{}, nil, err
	}
	res := result{
		Correct:   r.oracle.mismatches == 0,
		Attempted: len(r.open) + len(r.closed),
		Failed:    r.oracle.failed,
		Metrics:   map[string]metric{},
	}
	var lines []string
	if r.oracle.firstErr != "" {
		lines = append(lines, fmt.Sprintf("%s: %d of %d requests failed (%d wrong output); first: %s",
			w.name, res.Failed, res.Attempted, r.oracle.mismatches, r.oracle.firstErr))
	}
	light, heavy := r.units()
	if len(light) == 0 || len(heavy) == 0 {
		return result{}, nil, fmt.Errorf("%s: no successful light or heavy operation was timed", w.name)
	}
	ok := 0
	for _, s := range r.closed {
		if s.ok(r.plan.closed[s.op]) {
			ok++
		}
	}
	v := map[string]float64{
		"setup_s":       median(r.setups),
		"light_p50_ms":  quantile(light, 0.5),
		"heavy_p50_ms":  quantile(heavy, 0.5),
		"sat_rps":       float64(ok) / r.closedWall.Seconds(),
		"cpu_ms_per_op": float64(r.cpuTicks) * 1000 / ticksPerSecond / float64(r.cpuOps),
		"allocs_per_op": float64(r.mallocs) / float64(r.cpuOps),
	}
	lines = append(lines, fmt.Sprintf("%s seed %d: %d requests, %d light and %d heavy operations timed",
		w.name, cfg.seed, res.Attempted, len(light), len(heavy)))
	if !cfg.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{v[m.name], m.unit}
		}
		return res, lines, nil
	}
	layers, more, err := r.layers(cfg, fx, dir, light, heavy)
	if err != nil {
		return result{}, nil, err
	}
	res.Metrics = layers
	return res, append(lines, more...), nil
}

// measure starts the SUT, drives the plan and checks the outputs.
func (r *run) measure(cfg *config, fx *fixture, dir string) error {
	var s *sut
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	for k := 0; k < cfg.sizes.setups; k++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		var err error
		s, d, err = startSUT(cfg, fx, r.plan.fleet, filepath.Join(dir, fmt.Sprintf("sut%d", k)))
		if err != nil {
			return err
		}
		r.setups = append(r.setups, d.Seconds())
	}
	cpu0, err := s.cpuTicks()
	if err != nil {
		return err
	}
	mallocs0, err := s.mallocs()
	if err != nil {
		return err
	}
	firstPhaseDone := func(ops int) error {
		r.cpuOps = int64(ops)
		if r.cpuTicks, err = s.cpuTicks(); err != nil {
			return err
		}
		r.cpuTicks -= cpu0
		if r.mallocs, err = s.mallocs(); err != nil {
			return err
		}
		r.mallocs -= mallocs0
		return nil
	}
	g := newGenerator(s.base, r.plan.conns)
	defer g.close()
	if len(r.plan.open) > 0 {
		r.open = g.openLoop(r.plan.open, r.plan.at)
		if err := firstPhaseDone(len(r.open)); err != nil {
			return err
		}
	}
	r.closed, r.closedWall = g.closedLoop(r.plan.closed, r.plan.closedFor,
		func(seq int) bool { return seq%r.plan.keepEvery == 0 })
	sort.Slice(r.closed, func(i, j int) bool { return r.closed[i].seq < r.closed[j].seq })
	if r.cpuOps == 0 {
		if err := firstPhaseDone(len(r.closed)); err != nil {
			return err
		}
	}
	if r.rssMB, err = s.peakRSSMB(); err != nil {
		return err
	}
	if n := g.dials.Load(); n > int64(r.plan.conns) {
		return fmt.Errorf("generator opened %d connections, more than its %d", n, r.plan.conns)
	}
	r.oracle = newOracle(s.base, fx)
	if err := r.oracle.check(r.plan.open, r.open); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if err := r.oracle.check(r.plan.closed, r.closed); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	logs := s.logs()
	s.stop()
	s = nil
	r.serverDuration, err = serverDurations(logs)
	return err
}

// units returns the timed light and heavy operations in ms: whole
// sessions (create to delete) when the plan is sessions, otherwise
// requests — from the open-loop phase when there is one.
func (r *run) units() (light, heavy []float64) {
	add := func(class int, d time.Duration) {
		switch class {
		case classLight:
			light = append(light, ms(d))
		case classHeavy:
			heavy = append(heavy, ms(d))
		}
	}
	if len(r.plan.open) > 0 {
		for i := range r.open {
			s := &r.open[i]
			if o := r.plan.open[s.op]; s.ok(o) {
				add(o.class, s.latency())
			}
		}
		return light, heavy
	}
	if r.plan.closed[0].sess == "" {
		for i := range r.closed {
			s := &r.closed[i]
			if o := r.plan.closed[s.op]; s.ok(o) {
				add(o.class, s.latency())
			}
		}
		return light, heavy
	}
	// Sessions: ops of one session are consecutive in the send order.
	var start time.Duration
	good := false
	for i := range r.closed {
		s := &r.closed[i]
		o := r.plan.closed[s.op]
		if o.kind == opCreate {
			start, good = s.sent, true
		}
		good = good && s.ok(o)
		if o.kind == opDelete && good {
			add(o.class, s.done-start)
		}
	}
	return light, heavy
}

func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
