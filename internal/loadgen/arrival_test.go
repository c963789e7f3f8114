package loadgen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"
)

func drain(p *Poisson) []time.Duration {
	var out []time.Duration
	for {
		at, ok := p.Next()
		if !ok {
			return out
		}
		out = append(out, at)
	}
}

func TestPoissonDeterministicAndCalibrated(t *testing.T) {
	a := drain(NewPoisson(1000, 5000, 42))
	b := drain(NewPoisson(1000, 5000, 42))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := drain(NewPoisson(1000, 5000, 43))
	if a[100] == c[100] && a[2000] == c[2000] {
		t.Error("different seeds produced identical offsets")
	}
	// Nondecreasing, and the empirical rate is within 5% of nominal over
	// 5000 draws.
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("offsets decrease at %d", i)
		}
	}
	got := float64(len(a)) / a[len(a)-1].Seconds()
	if math.Abs(got-1000)/1000 > 0.05 {
		t.Errorf("empirical rate %.1f/s, want ~1000/s", got)
	}
}

// TestPoissonScheduleGolden pins the schedule the benchmark's serve-mix
// and fleet-mix plans send: ProcessFor("poisson", 400, n, seed, ...) is
// their call, and n only cuts the sequence short, so these are the first
// 4,000 arrivals of every run at 400/s. Each fingerprint is FNV-64a over
// the offsets in nanoseconds, little-endian int64, in order. A change here
// means the benchmark's schedule moved, and runs before and after it no
// longer compare.
func TestPoissonScheduleGolden(t *testing.T) {
	golden := map[int64]uint64{
		1:   0x930397aaa27df193,
		3:   0x18fb36adbf16a4f4,
		42:  0x32c5344908331e99,
		777: 0x093f5d438f2d0644,
	}
	for seed, want := range golden {
		p, err := ProcessFor("poisson", 400, 4000, seed, BurstShape{})
		if err != nil {
			t.Fatal(err)
		}
		offs := drain(p)
		if len(offs) != 4000 {
			t.Fatalf("seed %d: %d arrivals, want 4000", seed, len(offs))
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, at := range offs {
			binary.LittleEndian.PutUint64(buf[:], uint64(at))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != want {
			t.Errorf("seed %d: schedule fingerprint %#016x, want %#016x", seed, got, want)
		}
	}
}

func TestProcessForFactory(t *testing.T) {
	p, err := ProcessFor("poisson", 100, 10, 1, BurstShape{})
	if err != nil {
		t.Fatal(err)
	}
	if offs := drain(p); len(offs) != 10 {
		t.Errorf("arrivals = %d, want 10", len(offs))
	}
	for _, name := range []string{"fixed", "bursty", "warp"} {
		if _, err := ProcessFor(name, 100, 10, 1, BurstShape{}); err == nil {
			t.Errorf("ProcessFor(%q) did not error", name)
		}
	}
}
