// Package gs implements the delay-bound mathematics of the IETF Guaranteed
// Service (RFC 2212), which the paper's polling mechanism plugs into.
//
// Each network element along a Guaranteed Service path exports two error
// terms describing its deviation from a dedicated wire of the reserved fluid
// rate R: a rate-dependent term C (bytes) and a rate-independent term D
// (time). Given a flow's token bucket TSpec and the accumulated terms
// (Ctot, Dtot), the end-to-end queueing delay bound for a reservation R is
// (paper eq. 1, RFC 2212 §9):
//
//	p > R >= r:  (b-M)/R * (p-R)/(p-r) + (M+Ctot)/R + Dtot
//	R >= p >= r: (M+Ctot)/R + Dtot
//
// The package also solves the receiver's inverse problem: the minimum
// reservation R that achieves a requested bound.
package gs

import (
	"errors"
	"fmt"
	"math"
	"time"

	"bluegs/internal/tspec"
)

// Errors returned by the delay-bound computations.
var (
	ErrRateBelowTokenRate = errors.New("gs: reserved rate below token rate")
	ErrUnachievableDelay  = errors.New("gs: requested delay bound unachievable at any rate")
	ErrInvalidSpec        = errors.New("gs: invalid traffic specification")
)

// ErrorTerms is the (C, D) pair a network element exports: C is the
// rate-dependent deviation from the fluid model in bytes, D the
// rate-independent deviation in time.
type ErrorTerms struct {
	// C is the rate-dependent error term in bytes; it contributes C/R to
	// the delay bound.
	C float64
	// D is the rate-independent error term; it contributes additively.
	D time.Duration
}

// String renders the terms.
func (e ErrorTerms) String() string {
	return fmt.Sprintf("(C=%.1fB, D=%v)", e.C, e.D)
}

// DelayBound returns the RFC 2212 end-to-end queueing delay bound for a flow
// with the given TSpec served at fluid rate rate with accumulated error
// terms tot. It fails when the spec is invalid or rate < r (a Guaranteed
// Service reservation must be at least the token rate).
func DelayBound(spec tspec.TSpec, rate float64, tot ErrorTerms) (time.Duration, error) {
	if err := spec.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	if rate < spec.TokenRate {
		return 0, fmt.Errorf("%w: rate %.1f < r %.1f", ErrRateBelowTokenRate, rate, spec.TokenRate)
	}
	m := float64(spec.MaxTransferUnit)
	var sec float64
	if spec.PeakRate > rate {
		// p > R >= r
		sec = (spec.BucketSize-m)/rate*(spec.PeakRate-rate)/(spec.PeakRate-spec.TokenRate) +
			(m+tot.C)/rate
	} else {
		// R >= p >= r
		sec = (m + tot.C) / rate
	}
	return time.Duration(sec*float64(time.Second)) + tot.D, nil
}

// RequiredRate returns the minimum fluid rate R >= r such that the delay
// bound for the flow does not exceed target. It fails when the target is
// unachievable at any finite rate (target <= Dtot).
func RequiredRate(spec tspec.TSpec, target time.Duration, tot ErrorTerms) (float64, error) {
	if err := spec.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	q := (target - tot.D).Seconds()
	if q <= 0 {
		return 0, fmt.Errorf("%w: target %v <= Dtot %v", ErrUnachievableDelay, target, tot.D)
	}
	m := float64(spec.MaxTransferUnit)

	// First try the high-rate regime R >= p: bound = (M+C)/R + Dtot.
	rHigh := (m + tot.C) / q
	if rHigh >= spec.PeakRate {
		// Valid in this regime; R cannot be below r because p >= r.
		return rHigh, nil
	}
	// Otherwise the solution lies in r <= R < p (or at R = r).
	if spec.PeakRate > spec.TokenRate {
		// Solve (b-M)(p-R)/(R(p-r)) + (M+C)/R + Dtot = target for R:
		//   K(p-R) + M + C = q*R with K = (b-M)/(p-r)
		//   R = (K*p + M + C) / (q + K)
		k := (spec.BucketSize - m) / (spec.PeakRate - spec.TokenRate)
		rMid := (k*spec.PeakRate + m + tot.C) / (q + k)
		if rMid >= spec.TokenRate {
			return math.Min(rMid, spec.PeakRate), nil
		}
	}
	// Even the minimum legal reservation R = r meets the target.
	return spec.TokenRate, nil
}

// MaxDelayBound returns the delay bound obtained with the minimum legal
// reservation R = r: the bound that is achievable for the flow without any
// over-reservation. This is the paper's "delay bound that will never be
// exceeded" when requesting R = r.
func MaxDelayBound(spec tspec.TSpec, tot ErrorTerms) (time.Duration, error) {
	return DelayBound(spec, spec.TokenRate, tot)
}
