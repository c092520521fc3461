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

// UniformSize draws higher-layer packet sizes in bytes uniformly from
// [Min, Max] inclusive: the paper's GS packet size distribution, and
// with Min == Max its fixed BE size, which consumes no random draw.
type UniformSize struct {
	Min, Max int
}

// Draw returns one packet size (always >= 1).
func (u UniformSize) Draw(rng *rand.Rand) int {
	lo, hi := u.Bounds()
	if lo == hi {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// Bounds returns the inclusive [min, max] support, clamped to sizes of
// at least one byte; it feeds the flow's TSpec (m, M).
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
