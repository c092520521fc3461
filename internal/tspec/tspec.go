// Package tspec implements the token bucket traffic specification of the
// IETF Guaranteed Service model (RFC 2210/2212) and the arrival-curve
// bound it induces.
//
// A TSpec describes a flow by five parameters: peak rate p, token rate r,
// bucket size b, minimum policed unit m, and maximum transfer unit M. A flow
// conforms when, over every interval of length t, it sends no more than
// min(M + p*t, b + r*t) bytes, with every packet between m and M bytes
// (a policer counts packets smaller than m as m bytes).
package tspec

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Validation errors.
var (
	ErrNonPositiveRate = errors.New("tspec: rates must be positive")
	ErrPeakBelowToken  = errors.New("tspec: peak rate must be >= token rate")
	ErrBucketTooSmall  = errors.New("tspec: bucket size must be >= maximum transfer unit")
	ErrBadUnits        = errors.New("tspec: need 0 < m <= M")
)

// TSpec is a token bucket traffic specification. Rates are in bytes per
// second; sizes are in bytes.
type TSpec struct {
	// PeakRate is the peak rate p of the flow (bytes/s).
	PeakRate float64
	// TokenRate is the sustained token rate r (bytes/s).
	TokenRate float64
	// BucketSize is the token bucket depth b (bytes).
	BucketSize float64
	// MinPolicedUnit is the minimum policed unit m (bytes): any packet
	// smaller than m is counted as m bytes.
	MinPolicedUnit int
	// MaxTransferUnit is the maximum packet size M (bytes).
	MaxTransferUnit int
}

// Validate checks the internal consistency required by RFC 2210: positive
// rates, p >= r, b >= M and 0 < m <= M.
func (t TSpec) Validate() error {
	if t.TokenRate <= 0 || t.PeakRate <= 0 {
		return ErrNonPositiveRate
	}
	if t.PeakRate < t.TokenRate {
		return ErrPeakBelowToken
	}
	if t.MinPolicedUnit <= 0 || t.MinPolicedUnit > t.MaxTransferUnit {
		return ErrBadUnits
	}
	if t.BucketSize < float64(t.MaxTransferUnit) {
		return ErrBucketTooSmall
	}
	return nil
}

// String renders the spec compactly.
func (t TSpec) String() string {
	return fmt.Sprintf("TSpec{p=%.1fB/s r=%.1fB/s b=%.0fB m=%d M=%d}",
		t.PeakRate, t.TokenRate, t.BucketSize, t.MinPolicedUnit, t.MaxTransferUnit)
}

// ArrivalBound returns the maximum number of bytes a conformant flow may
// send in any interval of length d: min(M + p*d, b + r*d), per RFC 2212.
// For d <= 0 it returns M (one maximal packet may always be in flight).
func (t TSpec) ArrivalBound(d time.Duration) float64 {
	if d <= 0 {
		return float64(t.MaxTransferUnit)
	}
	sec := d.Seconds()
	peak := float64(t.MaxTransferUnit) + t.PeakRate*sec
	sustained := t.BucketSize + t.TokenRate*sec
	return math.Min(peak, sustained)
}

// BusyPeriod returns the horizon after which the sustained branch of the
// arrival curve dominates the peak branch: the t where M + p*t = b + r*t.
// For p == r it returns zero.
func (t TSpec) BusyPeriod() time.Duration {
	if t.PeakRate <= t.TokenRate {
		return 0
	}
	sec := (t.BucketSize - float64(t.MaxTransferUnit)) / (t.PeakRate - t.TokenRate)
	if sec < 0 {
		sec = 0
	}
	return time.Duration(sec * float64(time.Second))
}

// CBR returns the TSpec of a constant-bit-rate source that emits one packet
// of at most maxSize (and at least minSize) bytes every interval, which is
// exactly how the paper's §4.1 sources are specified: p = r = maxSize /
// interval, b = M = maxSize, m = minSize.
func CBR(interval time.Duration, minSize, maxSize int) TSpec {
	rate := float64(maxSize) / interval.Seconds()
	return TSpec{
		PeakRate:        rate,
		TokenRate:       rate,
		BucketSize:      float64(maxSize),
		MinPolicedUnit:  minSize,
		MaxTransferUnit: maxSize,
	}
}
