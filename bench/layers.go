// Per-layer metrics. The start of the run is replayed in-process through
// the mirror, alternately with spans on and off; the spans of the traced
// replays, together with those of the fixture build every run performs
// as set-up, give each layer's self time and counts. Residuals pair each
// replayed request with the same request of the untraced HTTP run.
package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	clx "clx"
	"clx/internal/progstore"
)

// perLayer are the metrics printed with tracing on, in print order.
var perLayer = []struct{ name, unit string }{
	{"daemon.residual_ms", "ms"},
	{"daemon.residual_samples", "count"},
	{"net.hop_ms", "ms"},
	{"daemon.json_ms", "ms"},
	{"cluster.profile_ms", "ms"},
	{"cluster.allocs_per_row", "allocs/row"},
	{"cluster.distinct_ratio", "ratio"},
	{"cluster.phase.index_ms", "ms"},
	{"cluster.phase.tokenize_ms", "ms"},
	{"cluster.phase.group_ms", "ms"},
	{"cluster.phase.constants_ms", "ms"},
	{"cluster.phase.refine_ms", "ms"},
	{"cluster.append_ms", "ms"},
	{"synth.label_ms", "ms"},
	{"synth.sources", "count"},
	{"synth.plans", "count"},
	{"clx.explain_ms", "ms"},
	{"clx.repair_candidates_ms", "ms"},
	{"unifi.run_ms", "ms"},
	{"clx.export_ms", "ms"},
	{"automaton.compile_ms", "ms"},
	{"automaton.lowered_ratio", "ratio"},
	{"automaton.ns_per_row", "ns/row"},
	{"automaton.allocs_per_row", "allocs/row"},
	{"progstore.recover_ms", "ms"},
	{"progstore.register_ms", "ms"},
	{"progstore.apply_ms", "ms"},
	{"progstore.drift_ms", "ms"},
	{"progstore.drift_ratio", "ratio"},
	{"stream.ns_per_row", "ns/row"},
	{"stream.allocs_per_row", "allocs/row"},
	{"stream.overhead_ns_per_row", "ns/row"},
	{"sessionstore.create_self_ms", "ms"},
	{"bench.late_p50_ms", "ms"},
	{"bench.late_p99_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.residual_pct", "%"},
	{"tail.light_p90_ms", "ms"},
	{"tail.light_p99_ms", "ms"},
	{"tail.heavy_p90_ms", "ms"},
	{"mem.rss_peak_mb", "MB"},
}

// replayIDs returns the replayed requests and the ids they had in the
// HTTP run.
func (r *run) replayIDs() ([]*op, []string) {
	var ops []*op
	var ids []string
	for j := 0; j < r.plan.replay; j++ {
		if len(r.plan.open) > 0 {
			ops = append(ops, r.plan.open[j])
			ids = append(ids, fmt.Sprintf("o%d", j))
		} else {
			ops = append(ops, r.plan.closed[j%len(r.plan.closed)])
			ids = append(ids, fmt.Sprintf("c%d", j))
		}
	}
	return ops, ids
}

// replay runs ops in-process against a fresh copy of the fixture store,
// after the same warm-up the SUT's set-up does.
func replay(fx *fixture, ops []*op, dir string, on, probes bool) (*mirror, error) {
	d, err := os.MkdirTemp(dir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(d)
	if err := copyDir(fx.dir, d); err != nil {
		return nil, err
	}
	rec := newRecorder(on)
	rec.probes = on && probes
	i := rec.begin("progstore.open", -1, 0, true)
	st, err := progstore.Open(d)
	rec.end(i)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	m := newMirror(st, rec)
	for _, id := range fx.ids {
		rec.probe("automaton.compile", -1, 0, func() {
			if sp, err := clx.LoadProgram(fx.programs[id]); err == nil {
				m.compiled++
				if sp.HasAutomaton() {
					m.lowered++
				}
			}
		})
	}
	for _, id := range fx.ids {
		if _, err := st.Apply(id, fx.cols[id].rows[:min(3, len(fx.cols[id].rows))], 1); err != nil {
			return nil, err
		}
	}
	for j, o := range ops {
		if err := m.run(o, j); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (r *run) layers(cfg *config, fx *fixture, dir string, light, heavy []float64) (map[string]metric, []string, error) {
	ops, ids := r.replayIDs()
	// One untraced replay warms the process; then traced and untraced
	// replays alternate, so trace overhead compares like with like. A last
	// traced replay runs the probes.
	if _, err := replay(fx, ops, dir, false, false); err != nil {
		return nil, nil, err
	}
	var on, off []*mirror
	for k := 0; k < 3; k++ {
		m, err := replay(fx, ops, dir, true, false)
		if err != nil {
			return nil, nil, err
		}
		on = append(on, m)
		if m, err = replay(fx, ops, dir, false, false); err != nil {
			return nil, nil, err
		}
		off = append(off, m)
	}
	// Each request's wall time is its median over the three replays, so a
	// GC pause or a slow moment in one replay does not count as overhead.
	onWall, offWall := medianWalls(on), medianWalls(off)
	probed, err := replay(fx, ops, dir, true, true)
	if err != nil {
		return nil, nil, err
	}
	if cfg.traceOut != "" {
		if err := writeChromeTrace(cfg.traceOut, [][]span{fx.built.rec.spans, probed.rec.spans}); err != nil {
			return nil, nil, err
		}
	}
	mirrors := append([]*mirror{fx.built, probed}, on...)

	// Self time, rows and allocations by layer over every traced span.
	self := map[string][]float64{}
	ns, rows, allocs := map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, m := range mirrors {
		st := selfTimes(m.rec.spans)
		for i, s := range m.rec.spans {
			if s.name == "request" {
				continue
			}
			self[s.name] = append(self[s.name], ms(st[i]))
			ns[s.name] += float64(st[i])
			rows[s.name] += float64(s.rows)
			allocs[s.name] += float64(s.allocs)
		}
	}
	// Per replayed request: the sum of its leaf spans and of its JSON
	// codec spans, averaged over the traced replays.
	leafSum, jsonSum := map[int]float64{}, map[int]float64{}
	var rootTotal, leafTotal float64
	for _, m := range on {
		for _, s := range m.rec.spans {
			if s.req < 0 || s.probe {
				continue
			}
			d := ms(s.dur()) / float64(len(on))
			if s.name == "request" {
				rootTotal += d
				continue
			}
			leafSum[s.req] += d
			leafTotal += d
			if strings.HasPrefix(s.name, "daemon.json.") {
				jsonSum[s.req] += d
			}
		}
	}
	var resid, hop, late []float64
	residByKind := map[opKind][]float64{}
	for j, id := range ids {
		sd, ok := r.serverDuration[id]
		if _, replayed := leafSum[j]; !ok || !replayed {
			continue
		}
		x := ms(sd) - leafSum[j]
		resid = append(resid, x)
		residByKind[ops[j].kind] = append(residByKind[ops[j].kind], x)
	}
	for _, phase := range [][]sample{r.open, r.closed} {
		for i := range phase {
			s := &phase[i]
			late = append(late, ms(s.late))
			if sd, ok := r.serverDuration[s.id]; ok && s.err == "" {
				hop = append(hop, ms(s.service()-sd))
			}
		}
	}
	var jsonMS []float64
	for _, v := range jsonSum {
		jsonMS = append(jsonMS, v)
	}

	var profiles []clx.ProfileStats
	var sources, plans, drift, createSelf []float64
	var distinct, profiled, checked, drifted, compiled, lowered float64
	var streamNS, transformNS, pairRows float64
	for _, m := range mirrors {
		profiles = append(profiles, m.profiles...)
		for _, tr := range m.labels {
			n := 0
			for i := range tr.Sources() {
				n += len(tr.Alternatives(i))
			}
			sources = append(sources, float64(len(tr.Sources())))
			plans = append(plans, float64(n))
		}
		drift = append(drift, m.driftMS...)
		createSelf = append(createSelf, m.createSelfMS...)
		checked += float64(m.checked)
		drifted += float64(m.drifted)
		compiled += float64(m.compiled)
		lowered += float64(m.lowered)
		streamNS += float64(m.streamNS)
		transformNS += float64(m.transformNS)
		pairRows += float64(m.pairRows)
	}
	phase := func(f func(clx.ProfileStats) time.Duration) []float64 {
		var out []float64
		for _, p := range profiles {
			out = append(out, ms(f(p)))
		}
		return out
	}
	for _, p := range profiles {
		distinct += float64(p.DistinctValues)
		profiled += float64(p.Rows)
	}

	var missing []string
	med := func(name string, xs []float64) float64 {
		if len(xs) == 0 {
			missing = append(missing, name)
			return 0
		}
		return median(xs)
	}
	ratio := func(name string, a, b float64) float64 {
		if b == 0 {
			missing = append(missing, name)
			return 0
		}
		return a / b
	}
	v := map[string]float64{
		"daemon.residual_ms":          med("daemon.residual_ms", resid),
		"daemon.residual_samples":     float64(len(resid)),
		"net.hop_ms":                  med("net.hop_ms", hop),
		"daemon.json_ms":              med("daemon.json_ms", jsonMS),
		"cluster.profile_ms":          med("cluster.profile_ms", self["cluster.profile"]),
		"cluster.allocs_per_row":      ratio("cluster.allocs_per_row", allocs["cluster.profile"], rows["cluster.profile"]),
		"cluster.distinct_ratio":      ratio("cluster.distinct_ratio", distinct, profiled),
		"cluster.phase.index_ms":      med("cluster.phase.index_ms", phase(func(p clx.ProfileStats) time.Duration { return p.Index })),
		"cluster.phase.tokenize_ms":   med("cluster.phase.tokenize_ms", phase(func(p clx.ProfileStats) time.Duration { return p.Tokenize })),
		"cluster.phase.group_ms":      med("cluster.phase.group_ms", phase(func(p clx.ProfileStats) time.Duration { return p.Group })),
		"cluster.phase.constants_ms":  med("cluster.phase.constants_ms", phase(func(p clx.ProfileStats) time.Duration { return p.Constants })),
		"cluster.phase.refine_ms":     med("cluster.phase.refine_ms", phase(func(p clx.ProfileStats) time.Duration { return p.Refine })),
		"cluster.append_ms":           med("cluster.append_ms", self["cluster.append"]),
		"synth.label_ms":              med("synth.label_ms", self["synth.label"]),
		"synth.sources":               ratio("synth.sources", sum(sources), float64(len(sources))),
		"synth.plans":                 ratio("synth.plans", sum(plans), float64(len(plans))),
		"clx.explain_ms":              med("clx.explain_ms", self["clx.explain"]),
		"clx.repair_candidates_ms":    med("clx.repair_candidates_ms", self["clx.repair_candidates"]),
		"unifi.run_ms":                med("unifi.run_ms", self["unifi.run"]),
		"clx.export_ms":               med("clx.export_ms", self["clx.export"]),
		"automaton.compile_ms":        med("automaton.compile_ms", self["automaton.compile"]),
		"automaton.lowered_ratio":     ratio("automaton.lowered_ratio", lowered, compiled),
		"automaton.ns_per_row":        ratio("automaton.ns_per_row", ns["automaton.transform"], rows["automaton.transform"]),
		"automaton.allocs_per_row":    ratio("automaton.allocs_per_row", allocs["automaton.transform"], rows["automaton.transform"]),
		"progstore.recover_ms":        med("progstore.recover_ms", self["progstore.open"]),
		"progstore.register_ms":       med("progstore.register_ms", self["progstore.register"]),
		"progstore.apply_ms":          med("progstore.apply_ms", self["progstore.apply"]),
		"progstore.drift_ms":          med("progstore.drift_ms", drift),
		"progstore.drift_ratio":       ratio("progstore.drift_ratio", drifted, checked),
		"stream.ns_per_row":           ratio("stream.ns_per_row", ns["stream.run"], rows["stream.run"]),
		"stream.allocs_per_row":       ratio("stream.allocs_per_row", allocs["stream.run"], rows["stream.run"]),
		"stream.overhead_ns_per_row":  ratio("stream.overhead_ns_per_row", streamNS-transformNS, pairRows),
		"sessionstore.create_self_ms": med("sessionstore.create_self_ms", createSelf),
		"bench.late_p50_ms":           quantile(late, 0.5),
		"bench.late_p99_ms":           quantile(late, 0.99),
		"bench.trace_overhead_pct":    ratio("bench.trace_overhead_pct", 100*(onWall-offWall), offWall),
		"bench.residual_pct":          ratio("bench.residual_pct", 100*(rootTotal-leafTotal), rootTotal),
		"tail.light_p90_ms":           quantile(light, 0.9),
		"tail.light_p99_ms":           quantile(light, 0.99),
		"tail.heavy_p90_ms":           quantile(heavy, 0.9),
		"mem.rss_peak_mb":             r.rssMB,
	}
	if len(missing) > 0 {
		return nil, nil, fmt.Errorf("no samples for per-layer metrics %s", strings.Join(missing, ", "))
	}
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
	}
	var lines []string
	for k := opKind(0); int(k) < len(opNames); k++ {
		if xs := residByKind[k]; len(xs) > 0 {
			lines = append(lines, fmt.Sprintf("daemon.%s.residual_ms %.4f ms (n=%d)", k, median(xs), len(xs)))
		}
	}
	lines = append(lines, fmt.Sprintf("tails: light n=%d, heavy n=%d; replay %d requests, wall on %.1f ms off %.1f ms",
		len(light), len(heavy), len(ops), onWall, offWall))
	return out, append(lines, heavyBreakdown(ops, on)...), nil
}

// heavyBreakdown renders where one heavy operation of the replay spends
// its time: the mean self time per heavy operation of every layer its
// requests touched, largest first. A heavy operation is one request, or
// one whole session when the plan is sessions.
func heavyBreakdown(ops []*op, on []*mirror) []string {
	units := 0
	for _, o := range ops {
		if o.class == classHeavy && (o.sess == "" || o.kind == opCreate) {
			units++
		}
	}
	if units == 0 {
		return nil
	}
	per := map[string]float64{}
	for _, m := range on {
		st := selfTimes(m.rec.spans)
		for i, s := range m.rec.spans {
			if s.req >= 0 && !s.probe && ops[s.req].class == classHeavy {
				per[s.name] += ms(st[i]) / float64(units*len(on))
			}
		}
	}
	names := make([]string, 0, len(per))
	for k := range per {
		names = append(names, k)
	}
	sort.Slice(names, func(a, b int) bool { return per[names[a]] > per[names[b]] })
	lines := []string{fmt.Sprintf("one heavy operation, mean of %d (ms, self time; \"request\" is time between layers):", units)}
	for _, k := range names {
		lines = append(lines, fmt.Sprintf("  %-28s %10.4f", k, per[k]))
	}
	return lines
}

// medianWalls sums, over the replayed requests, each request's median
// wall time across the replays, in ms.
func medianWalls(reps []*mirror) float64 {
	total := 0.0
	for j := range reps[0].walls {
		var w []float64
		for _, m := range reps {
			w = append(w, float64(m.walls[j]))
		}
		total += median(w)
	}
	return total / float64(time.Millisecond)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
