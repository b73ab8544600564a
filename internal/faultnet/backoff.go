package faultnet

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// ErrBudgetExhausted is returned (or reported via a false result) when
// a Backoff has spent its attempt or time budget.
var ErrBudgetExhausted = errors.New("faultnet: retry budget exhausted")

// Policy describes a jittered exponential backoff: delays start at
// Initial, grow by Factor up to Max, and each delay is jittered
// downward by up to Jitter of itself so a fleet of clients that lost
// their server at the same instant does not retry in lockstep.
//
// Zero-valued fields take the DefaultPolicy values, so a partially
// specified Policy (say, only Initial and Max) is valid. The zero
// Policy as a whole means "defaults" to the components that accept
// one.
type Policy struct {
	// Initial is the first retry delay.
	Initial time.Duration
	// Max caps the grown delay.
	Max time.Duration
	// Factor multiplies the delay after each attempt (>= 1).
	Factor float64
	// Jitter in (0,1] subtracts a uniform random fraction of up to
	// Jitter*delay from each delay. Negative disables jitter
	// (deterministic delays, for tests).
	Jitter float64
	// MaxAttempts bounds how many delays are handed out; 0 means
	// unlimited.
	MaxAttempts int
	// Budget bounds the total time spent sleeping across all
	// attempts; 0 means unlimited. The final delay is truncated to
	// exactly exhaust the budget.
	Budget time.Duration
}

// DefaultPolicy is the stack-wide retry policy used when a component
// is given a zero Policy field: 50ms doubling to 2s, half-width
// jitter, no attempt bound (the surrounding loop's stop channel or
// context bounds it).
var DefaultPolicy = Policy{
	Initial: 50 * time.Millisecond,
	Max:     2 * time.Second,
	Factor:  2,
	Jitter:  0.5,
}

// normalized fills zero fields from DefaultPolicy and repairs
// inconsistent combinations.
func (p Policy) normalized() Policy {
	if p.Initial <= 0 {
		p.Initial = DefaultPolicy.Initial
	}
	if p.Max <= 0 {
		p.Max = DefaultPolicy.Max
	}
	if p.Max < p.Initial {
		p.Max = p.Initial
	}
	if p.Factor < 1 {
		p.Factor = DefaultPolicy.Factor
	}
	if p.Jitter == 0 {
		p.Jitter = DefaultPolicy.Jitter
	} else if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = 0
	}
	return p
}

// Backoff is the stateful side of a Policy: one retry loop's
// position in the delay schedule. Not safe for concurrent use; each
// loop owns one.
type Backoff struct {
	p       Policy
	attempt int
	base    time.Duration
	slept   time.Duration
}

// NewBackoff starts a backoff schedule under p (zero fields take
// defaults; see Policy).
func NewBackoff(p Policy) *Backoff {
	return &Backoff{p: p.normalized()}
}

// Reset rewinds the schedule to the first delay. Call it after a
// success so the next failure starts fast again.
func (b *Backoff) Reset() {
	b.attempt = 0
	b.base = 0
	b.slept = 0
}

// Next returns the next delay in the schedule, or false when the
// policy's attempt or time budget is exhausted.
func (b *Backoff) Next() (time.Duration, bool) {
	if b.p.MaxAttempts > 0 && b.attempt >= b.p.MaxAttempts {
		return 0, false
	}
	if b.p.Budget > 0 && b.slept >= b.p.Budget {
		return 0, false
	}
	if b.attempt == 0 {
		b.base = b.p.Initial
	} else {
		b.base = time.Duration(float64(b.base) * b.p.Factor)
		if b.base > b.p.Max {
			b.base = b.p.Max
		}
	}
	b.attempt++
	d := b.base
	if b.p.Jitter > 0 {
		if span := time.Duration(float64(d) * b.p.Jitter); span > 0 {
			d -= time.Duration(rand.Int63n(int64(span) + 1))
		}
	}
	if b.p.Budget > 0 && b.slept+d > b.p.Budget {
		d = b.p.Budget - b.slept
	}
	b.slept += d
	return d, true
}

// Sleep blocks for the next delay in the schedule. It returns false
// without sleeping when the budget is exhausted, and false
// immediately when stop closes mid-wait; a nil stop never interrupts.
func (b *Backoff) Sleep(stop <-chan struct{}) bool {
	d, ok := b.Next()
	if !ok {
		return false
	}
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// SleepContext is Sleep under a context: it returns ctx.Err() when
// canceled mid-wait and ErrBudgetExhausted when the schedule is
// spent.
func (b *Backoff) SleepContext(ctx context.Context) error {
	d, ok := b.Next()
	if !ok {
		return ErrBudgetExhausted
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
