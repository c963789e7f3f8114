package mdl

import (
	"math"
	"reflect"
	"testing"

	"clx/internal/align"
	"clx/internal/pattern"
	"clx/internal/token"
	"clx/internal/unifi"
)

func TestOpCost(t *testing.T) {
	if got := OpCost(unifi.Extract{I: 1, J: 3}, 5); math.Abs(got-2*math.Log2(5)) > 1e-9 {
		t.Errorf("Extract cost = %v, want 2·log2(5)", got)
	}
	if got := OpCost(unifi.ConstStr{S: "ab"}, 5); math.Abs(got-2*math.Log2(95)) > 1e-9 {
		t.Errorf("ConstStr cost = %v, want 2·log2(95)", got)
	}
}

// Paper Example 9: the single-extract plan must have a strictly smaller
// description length than the three-operator plan.
func TestExample9Ranking(t *testing.T) {
	const srcLen = 5 // <D>2'/'<D>2'/'<D>4
	e1 := unifi.Plan{Ops: []unifi.Op{unifi.Extract{I: 1, J: 3}}}
	e2 := unifi.Plan{Ops: []unifi.Op{
		unifi.Extract{I: 1, J: 1}, unifi.ConstStr{S: "/"}, unifi.Extract{I: 3, J: 3},
	}}
	d1, d2 := PlanDL(e1, srcLen), PlanDL(e2, srcLen)
	if d1 >= d2 {
		t.Errorf("DL(E1)=%v not < DL(E2)=%v", d1, d2)
	}
	// E1 uses a single op type: model length is zero.
	if want := 2 * math.Log2(5); math.Abs(d1-want) > 1e-9 {
		t.Errorf("DL(E1) = %v, want %v", d1, want)
	}
	// E2 uses both op types: |E| log 2 + 2 extracts + one 1-char const.
	want := 3 + 2*(2*math.Log2(5)) + math.Log2(95)
	if math.Abs(d2-want) > 1e-9 {
		t.Errorf("DL(E2) = %v, want %v", d2, want)
	}
}

func TestPlanDLEmpty(t *testing.T) {
	if got := PlanDL(unifi.Plan{}, 5); got != 0 {
		t.Errorf("empty plan DL = %v, want 0", got)
	}
}

func TestTopKExample9(t *testing.T) {
	src := pattern.MustParse("<D>2'/'<D>2'/'<D>4")
	tgt := pattern.MustParse("<D>2'/'<D>2")
	d := align.Align(tgt, src)
	ranked := TopK(d, src, 5)
	if len(ranked) == 0 {
		t.Fatal("no plans found")
	}
	want := unifi.Plan{Ops: []unifi.Op{unifi.Extract{I: 1, J: 3}}}
	if !ranked[0].Plan.Equal(want) {
		t.Errorf("top plan = %s, want %s", ranked[0].Plan, want)
	}
	// All returned plans are valid (apply without error and produce a
	// string matching the target) and sorted by DL.
	for i, r := range ranked {
		out, err := r.Plan.Apply(src, "31/12/2019")
		if err != nil {
			t.Errorf("plan %d (%s) failed: %v", i, r.Plan, err)
			continue
		}
		if !tgt.Matches(out) {
			t.Errorf("plan %d output %q does not match target", i, out)
		}
		if i > 0 && r.DL < ranked[i-1].DL {
			t.Errorf("plans not sorted: DL[%d]=%v < DL[%d]=%v", i, r.DL, i-1, ranked[i-1].DL)
		}
	}
}

// The top-k list contains the semantically distinct date alternatives
// Extract(1,3) (keep DD/MM) and Extract(3,5) (keep MM/YY... here MM/YYYY is
// invalid; the other two-digit pair) — i.e. ambiguity is preserved for
// repair (§6.4).
func TestTopKKeepsAlternatives(t *testing.T) {
	src := pattern.MustParse("<D>2'/'<D>2'/'<D>2")
	tgt := pattern.MustParse("<D>2'/'<D>2")
	d := align.Align(tgt, src)
	ranked := TopK(d, src, 10)
	var found13, found35 bool
	for _, r := range ranked {
		if r.Plan.Equal(unifi.Plan{Ops: []unifi.Op{unifi.Extract{I: 1, J: 3}}}) {
			found13 = true
		}
		if r.Plan.Equal(unifi.Plan{Ops: []unifi.Op{unifi.Extract{I: 3, J: 5}}}) {
			found35 = true
		}
	}
	if !found13 || !found35 {
		t.Errorf("alternatives missing: Extract(1,3)=%v Extract(3,5)=%v; plans:", found13, found35)
		for _, r := range ranked {
			t.Logf("  %s (DL %.2f)", r.Plan, r.DL)
		}
	}
	// Deterministic tie-break: the in-order Extract(1,3) ranks above
	// Extract(3,5).
	if ranked[0].Plan.Equal(unifi.Plan{Ops: []unifi.Op{unifi.Extract{I: 3, J: 5}}}) {
		t.Error("tie-break should prefer the in-order extract")
	}
}

func TestTopKIncompleteDAG(t *testing.T) {
	d := align.Align(pattern.MustParse("<D>3"), pattern.MustParse("<U>3"))
	if got := TopK(d, pattern.MustParse("<U>3"), 5); len(got) != 0 {
		t.Errorf("plans = %v, want none for incomplete DAG", got)
	}
}

func TestTopKZero(t *testing.T) {
	src := pattern.MustParse("<D>2")
	d := align.Align(src, src)
	if got := TopK(d, src, 0); got != nil {
		t.Errorf("TopK(k=0) = %v, want nil", got)
	}
}

// Exhaustive check on a small DAG: TopK's first result equals the true
// minimum over all full paths.
func TestTopKMatchesExhaustive(t *testing.T) {
	src := pattern.MustParse("<U>+' '<U>+' '<D>4")
	tgt := pattern.MustParse("<U>+'-'<U>+")
	d := align.Align(tgt, src)
	ranked := TopK(d, src, 50)
	if len(ranked) == 0 {
		t.Fatal("no plans")
	}
	var all []unifi.Plan
	var walk func(node int, acc []unifi.Op)
	walk = func(node int, acc []unifi.Op) {
		if node == d.N {
			ops := make([]unifi.Op, len(acc))
			copy(ops, acc)
			all = append(all, unifi.Plan{Ops: ops})
			return
		}
		for _, e := range d.Edges() {
			if e.From != node {
				continue
			}
			for _, op := range d.Ops[e] {
				walk(e.To, append(acc, op))
			}
		}
	}
	walk(0, nil)
	if len(all) == 0 {
		t.Fatal("exhaustive walk found no plans")
	}
	// The top plan must be the minimum-DL plan within the preferred
	// (monotone, when any exist) stratum.
	best := math.Inf(1)
	anyMonotone := false
	for _, p := range all {
		anyMonotone = anyMonotone || Monotone(p)
	}
	for _, p := range all {
		if anyMonotone && !Monotone(p) {
			continue
		}
		if dl := PlanDL(p, src.Len()); dl < best {
			best = dl
		}
	}
	if ranked[0].Monotone != anyMonotone {
		t.Errorf("top plan monotone = %v, want %v", ranked[0].Monotone, anyMonotone)
	}
	if math.Abs(ranked[0].DL-best) > 1e-9 {
		t.Errorf("TopK best DL = %v, exhaustive best = %v", ranked[0].DL, best)
	}
	if want := min(len(all), 50); len(ranked) != want {
		t.Errorf("TopK returned %d plans, want %d (exhaustive found %d)",
			len(ranked), want, len(all))
	}
}

// fuzzPattern decodes bytes into a small token pattern: each byte picks a
// base class or one of a few literals, and a quantifier (Plus or 1–3).
func fuzzPattern(b []byte) pattern.Pattern {
	if len(b) > 7 {
		b = b[:7]
	}
	lits := [...]string{"-", "/", "ab"}
	toks := make([]token.Token, 0, len(b))
	for _, x := range b {
		q := int(x>>3) % 4
		if q == 0 {
			q = token.Plus
		}
		if kind := int(x % 8); kind < 5 {
			toks = append(toks, token.Base(token.BaseClasses[kind], q))
		} else {
			t := token.Lit(lits[kind-5])
			t.Quant = q
			toks = append(toks, t)
		}
	}
	return pattern.Of(toks...)
}

// FuzzTopKVsReference aligns random small source and target patterns and
// checks that TopK returns exactly the reference enumeration's ranking.
func FuzzTopKVsReference(f *testing.F) {
	f.Add([]byte{1, 5, 9, 6, 17}, []byte{1, 5, 9}, uint8(12))
	f.Add([]byte{2, 0x21, 3, 0x0d}, []byte{3, 0x0d, 2}, uint8(1))
	f.Add([]byte{9, 9, 9, 7, 9}, []byte{9, 7, 9, 9}, uint8(96))
	f.Add([]byte{0x19, 5, 0x11, 5, 0x21}, []byte{0x21, 6, 0x11, 6, 0x19}, uint8(3))
	f.Fuzz(func(t *testing.T, srcBytes, tgtBytes []byte, k uint8) {
		src, tgt := fuzzPattern(srcBytes), fuzzPattern(tgtBytes)
		d := align.Align(tgt, src)
		got, want := TopK(d, src, int(k)), referenceTopK(d, src, int(k))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("source %s, target %s, k=%d:\n got %v\nwant %v", src, tgt, k, got, want)
		}
	})
}
