// Package stats provides the measurement substrate for the simulation:
// streaming moments (Welford), exact-quantile sample stores, duration
// statistics, throughput meters, and text/CSV table rendering for the
// experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Welford accumulates streaming mean and variance using Welford's online
// algorithm. The zero value is an empty accumulator ready to use.
type Welford struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the sample mean (zero when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (zero for fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation (zero when empty).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return 0
	}
	return w.min
}

// Max returns the largest observation (zero when empty).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return 0
	}
	return w.max
}

// Sample stores observations for exact quantile queries. The zero value is
// ready to use and stores every observation; use NewSample to bound memory
// with reservoir sampling.
type Sample struct {
	values []float64
	sorted bool
	cap    int
	seen   uint64
	// rnd is a tiny xorshift state for reservoir replacement; avoiding
	// math/rand keeps the zero value usable without a constructor.
	rnd uint64
}

// NewSample returns a Sample that keeps at most capacity observations using
// reservoir sampling (capacity <= 0 means unbounded).
func NewSample(capacity int) *Sample {
	return &Sample{cap: capacity, rnd: 0x9E3779B97F4A7C15}
}

// Add incorporates one observation.
func (s *Sample) Add(x float64) {
	s.seen++
	if s.cap <= 0 || len(s.values) < s.cap {
		s.values = append(s.values, x)
		s.sorted = false
		return
	}
	// Reservoir replacement with probability cap/seen.
	s.rnd ^= s.rnd << 13
	s.rnd ^= s.rnd >> 7
	s.rnd ^= s.rnd << 17
	idx := s.rnd % s.seen
	if idx < uint64(s.cap) {
		s.values[idx] = x
		s.sorted = false
	}
}

// Count returns the number of observations seen (not the retained count).
func (s *Sample) Count() uint64 { return s.seen }

// Retained returns how many observations are held.
func (s *Sample) Retained() int { return len(s.values) }

// Quantile returns the q-quantile (0 <= q <= 1) of the retained
// observations using linear interpolation; zero when empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	if q <= 0 {
		return s.values[0]
	}
	if q >= 1 {
		return s.values[len(s.values)-1]
	}
	pos := q * float64(len(s.values)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.values[lo]
	}
	frac := pos - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// Max returns the largest retained observation (zero when empty).
func (s *Sample) Max() float64 { return s.Quantile(1) }

// Min returns the smallest retained observation (zero when empty).
func (s *Sample) Min() float64 { return s.Quantile(0) }

// Values returns a copy of the retained observations (unspecified order).
func (s *Sample) Values() []float64 {
	return append([]float64(nil), s.values...)
}

// DurationStats accumulates statistics over time.Duration observations,
// combining streaming moments with an exact-quantile sample. The zero value
// is ready to use (unbounded sample).
type DurationStats struct {
	w Welford
	s Sample
}

// NewDurationStats bounds the retained sample to capacity observations.
func NewDurationStats(capacity int) *DurationStats {
	return &DurationStats{s: *NewSample(capacity)}
}

// Add incorporates one duration observation.
func (d *DurationStats) Add(v time.Duration) {
	x := float64(v)
	d.w.Add(x)
	d.s.Add(x)
}

// Count returns the number of observations.
func (d *DurationStats) Count() uint64 { return d.w.Count() }

// Retained returns how many observations the sample holds.
func (d *DurationStats) Retained() int { return d.s.Retained() }

// Mean returns the mean duration.
func (d *DurationStats) Mean() time.Duration { return time.Duration(d.w.Mean()) }

// StdDev returns the standard deviation.
func (d *DurationStats) StdDev() time.Duration { return time.Duration(d.w.StdDev()) }

// Min returns the smallest observation.
func (d *DurationStats) Min() time.Duration { return time.Duration(d.w.Min()) }

// Max returns the largest observation. Unlike the quantile sample, this is
// exact even when the sample is bounded.
func (d *DurationStats) Max() time.Duration { return time.Duration(d.w.Max()) }

// Quantile returns the q-quantile of the retained sample.
func (d *DurationStats) Quantile(q float64) time.Duration {
	return time.Duration(d.s.Quantile(q))
}

// FillHistogram adds every retained observation into the histogram (for
// rendering delay distributions after a run).
func (d *DurationStats) FillHistogram(h *DurationHistogram) {
	if h == nil {
		return
	}
	for _, v := range d.s.Values() {
		h.Add(time.Duration(v))
	}
}

// Meter counts bytes and packets and converts them to rates over a given
// elapsed time. The zero value is ready to use.
type Meter struct {
	bytes   uint64
	packets uint64
}

// Add records one packet of n bytes.
func (m *Meter) Add(n int) {
	if n < 0 {
		return
	}
	m.bytes += uint64(n)
	m.packets++
}

// Unadd reverses one Add of n bytes: batched traffic sources that
// pre-count future packets use it to uncount packets whose arrival never
// happens (flow retired, piconet removed). Underflow clamps to zero.
func (m *Meter) Unadd(n int) {
	if n < 0 {
		return
	}
	if m.bytes >= uint64(n) {
		m.bytes -= uint64(n)
	} else {
		m.bytes = 0
	}
	if m.packets > 0 {
		m.packets--
	}
}

// Bytes returns the accumulated byte count.
func (m *Meter) Bytes() uint64 { return m.bytes }

// Packets returns the accumulated packet count.
func (m *Meter) Packets() uint64 { return m.packets }

// BitsPerSecond returns the average bit rate over elapsed (zero for
// non-positive elapsed).
func (m *Meter) BitsPerSecond(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(m.bytes) * 8 / elapsed.Seconds()
}

// Kbps returns the average rate in kilobits per second.
func (m *Meter) Kbps(elapsed time.Duration) float64 {
	return m.BitsPerSecond(elapsed) / 1000
}

// Fairness computes Jain's fairness index over a set of allocations:
// (sum x)^2 / (n * sum x^2). It is 1 for perfectly equal allocations and
// 1/n when a single participant receives everything. Returns 1 for empty or
// all-zero input (vacuously fair).
func Fairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// MaxMinShares computes the max–min fair allocation of a total capacity to
// demands: every demand receives min(demand, fair level), with the level
// chosen so the capacity is exhausted (or all demands met). The returned
// slice is aligned with demands.
func MaxMinShares(capacity float64, demands []float64) []float64 {
	out := make([]float64, len(demands))
	if capacity <= 0 || len(demands) == 0 {
		return out
	}
	type entry struct {
		idx    int
		demand float64
	}
	order := make([]entry, 0, len(demands))
	for i, d := range demands {
		if d < 0 {
			d = 0
		}
		order = append(order, entry{idx: i, demand: d})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].demand < order[j].demand })
	remaining := capacity
	for i, e := range order {
		share := remaining / float64(len(order)-i)
		if e.demand <= share {
			out[e.idx] = e.demand
			remaining -= e.demand
		} else {
			out[e.idx] = share
			remaining -= share
		}
	}
	return out
}

// FormatKbps renders a rate with one decimal, e.g. "64.0".
func FormatKbps(v float64) string { return fmt.Sprintf("%.1f", v) }
