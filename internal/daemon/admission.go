// Streaming-apply admission. Each stream pins a chunk-window of memory
// for its whole lifetime, so admission is bounded: a counting semaphore
// allows at most N streams in flight, acquire-or-429. Under a burst the
// head is admitted and the tail rejected, which keeps the memory bound
// hard. Both sides of every decision are counted
// (clx_streams_admitted_total / clx_streams_rejected_total), so
// client-observed 200/429 counts can be reconciled exactly against the
// server's accounting.
package daemon

import (
	"math"
	"sync/atomic"
	"time"
)

// semaphoreAdmission is a counting semaphore with a non-blocking acquire.
type semaphoreAdmission struct {
	sem chan struct{}
}

func newSemaphoreAdmission(slots int) *semaphoreAdmission {
	if slots < 1 {
		slots = 1
	}
	return &semaphoreAdmission{sem: make(chan struct{}, slots)}
}

// Admit takes a slot if one is free. When it does, the returned release
// gives the slot back and must be called exactly once, when the stream
// ends.
func (a *semaphoreAdmission) Admit() (release func(), ok bool) {
	select {
	case a.sem <- struct{}{}:
		return func() { <-a.sem }, true
	default:
		return nil, false
	}
}

// slots reports the configured capacity (for error messages).
func (a *semaphoreAdmission) slots() int { return cap(a.sem) }

// held reports the slots taken right now (the in-flight gauge).
func (a *semaphoreAdmission) held() int { return len(a.sem) }

// durationEWMA is an exponentially weighted moving average over
// durations, updated lock-free. It backs the Retry-After hint on 429: a
// rejected client is told to come back after roughly one typical stream
// duration, because that is when a slot is likely to free — a fixed "1"
// underestimates backoff whenever streams run long.
type durationEWMA struct {
	bits atomic.Uint64 // float64 seconds; 0 = no observations yet
}

// ewmaAlpha weights the newest observation: 0.2 ≈ a 5-observation
// memory, enough to track load shifts without chasing single outliers.
const ewmaAlpha = 0.2

// Observe folds one duration into the average.
func (e *durationEWMA) Observe(d time.Duration) {
	s := d.Seconds()
	if s < 0 {
		return
	}
	for {
		old := e.bits.Load()
		var next float64
		if old == 0 {
			next = s // first observation seeds the average
		} else {
			prev := math.Float64frombits(old)
			next = (1-ewmaAlpha)*prev + ewmaAlpha*s
		}
		nb := math.Float64bits(next)
		if nb == 0 {
			nb = 1 // 0.0 is the "unset" sentinel; clamp to the smallest denormal
		}
		if e.bits.CompareAndSwap(old, nb) {
			return
		}
	}
}

// Seconds returns the current average, 0 before any observation.
func (e *durationEWMA) Seconds() float64 {
	return math.Float64frombits(e.bits.Load())
}

// retryAfterSeconds renders the EWMA as a Retry-After value: the average
// stream duration rounded up to whole seconds, floored at 1 (HTTP's
// minimum useful hint) and capped at 30 (past that, the hint is "shed
// load elsewhere", not "poll slower").
func (e *durationEWMA) retryAfterSeconds() int {
	s := e.Seconds()
	if s <= 0 {
		return 1
	}
	secs := int(math.Ceil(s))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}
