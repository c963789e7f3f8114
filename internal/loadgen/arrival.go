// Package loadgen is the seeded open-loop arrival schedule the benchmark
// under bench/ sends: a Poisson process whose offsets depend on the rate,
// count and seed alone.
//
// Open loop means arrivals are scheduled by the process alone — a slow
// server does not slow the generator down, it just accumulates in-flight
// requests. That is the property that makes saturation visible: a
// closed-loop client self-throttles and reports a flattering latency
// curve, an open-loop client exposes the queueing cliff. The same seed
// gives the same offsets (pinned by TestPoissonScheduleGolden), so a
// latency regression between two runs is attributable to the server, not
// the generator.
package loadgen

import (
	"fmt"
	"math/rand"
	"time"
)

// Poisson emits n arrivals with exponentially distributed inter-arrival
// times at mean rate per second — the standard open-loop model for
// independent clients.
type Poisson struct {
	rate float64
	r    *rand.Rand
	at   time.Duration
	n, i int
}

// NewPoisson builds a Poisson process with n arrivals at mean rate/s,
// seeded deterministically.
func NewPoisson(rate float64, n int, seed int64) *Poisson {
	if rate <= 0 {
		panic("loadgen: poisson rate must be positive")
	}
	return &Poisson{rate: rate, r: rand.New(rand.NewSource(seed)), n: n}
}

// Next returns the next arrival offset from the start of the run, or
// ok=false when the process has emitted every arrival. Offsets are
// nondecreasing.
func (p *Poisson) Next() (at time.Duration, ok bool) {
	if p.i >= p.n {
		return 0, false
	}
	p.i++
	// ExpFloat64 has mean 1; scale to mean inter-arrival 1/rate.
	p.at += time.Duration(p.r.ExpFloat64() / p.rate * float64(time.Second))
	return p.at, true
}

// ProcessFor builds the named arrival process. "poisson" is the only
// process; the name and the shape argument keep the benchmark's call
// site unchanged.
func ProcessFor(name string, rate float64, n int, seed int64, _ BurstShape) (*Poisson, error) {
	if name != "poisson" {
		return nil, fmt.Errorf("loadgen: unknown arrival process %q (want poisson)", name)
	}
	return NewPoisson(rate, n, seed), nil
}

// BurstShape carries no parameters. It remains only because the
// benchmark module under bench/ passes BurstShape{} to ProcessFor and is
// kept byte-for-byte stable between commits so that runs compare.
type BurstShape struct{}
