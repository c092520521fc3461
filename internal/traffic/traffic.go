// Package traffic provides the source models that drive the simulated
// piconet: packet size distributions and the CBR arrival process. The
// paper's §4.1 sources are CBR with either uniform (GS flows: 144–176
// bytes every 20 ms) or fixed (BE flows: 176 bytes) packet sizes.
package traffic

import (
	"math"
	"math/rand"
	"time"
)

// SizeDist draws higher-layer packet sizes in bytes.
type SizeDist interface {
	// Draw returns one packet size (always >= 1).
	Draw(rng *rand.Rand) int
	// Bounds returns the inclusive [min, max] support of the
	// distribution, which feeds the flow's TSpec (m, M).
	Bounds() (minSize, maxSize int)
}

// FixedSize always draws the same size.
type FixedSize int

var _ SizeDist = FixedSize(0)

// Draw implements SizeDist.
func (f FixedSize) Draw(*rand.Rand) int {
	if f < 1 {
		return 1
	}
	return int(f)
}

// Bounds implements SizeDist.
func (f FixedSize) Bounds() (int, int) {
	n := int(f)
	if n < 1 {
		n = 1
	}
	return n, n
}

// UniformSize draws sizes uniformly from [Min, Max] inclusive, the paper's
// GS packet size distribution.
type UniformSize struct {
	Min, Max int
}

var _ SizeDist = UniformSize{}

// Draw implements SizeDist.
func (u UniformSize) Draw(rng *rand.Rand) int {
	lo, hi := u.Bounds()
	if lo == hi {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// Bounds implements SizeDist.
func (u UniformSize) Bounds() (int, int) {
	lo, hi := u.Min, u.Max
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// CBR emits one packet every Interval, the paper's arrival process for both
// GS and BE sources.
type CBR struct {
	Interval time.Duration
}

// NextInterval returns the time between the previous packet and the next
// one: Interval, or 1 ms when Interval is not positive.
func (c CBR) NextInterval() time.Duration {
	if c.Interval <= 0 {
		return time.Millisecond
	}
	return c.Interval
}

// CBRForRate returns the CBR process that carries rate bits per second with
// packets of the given mean size in bytes. This mirrors the paper's BE
// sources, e.g. 176-byte packets at 41.6 kbps.
func CBRForRate(bitsPerSecond float64, meanPacketBytes int) CBR {
	if bitsPerSecond <= 0 || meanPacketBytes <= 0 {
		return CBR{Interval: time.Millisecond}
	}
	// Round to the nearest nanosecond: truncation would bias every
	// interval short, so the emitted rate would systematically overshoot
	// the requested one (e.g. the paper's 41.6 kbps BE sources).
	sec := float64(meanPacketBytes) * 8 / bitsPerSecond
	return CBR{Interval: time.Duration(math.Round(sec * float64(time.Second)))}
}
