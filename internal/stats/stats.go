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

// Sample stores every observation for exact quantile queries. The zero
// value is ready to use.
type Sample struct {
	values []float64
	sorted bool
}

// Add incorporates one observation.
func (s *Sample) Add(x float64) {
	s.values = append(s.values, x)
	s.sorted = false
}

// Count returns the number of observations.
func (s *Sample) Count() uint64 { return uint64(len(s.values)) }

// Quantile returns the q-quantile (0 <= q <= 1) of the observations using
// linear interpolation; zero when empty.
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

// Max returns the largest observation (zero when empty).
func (s *Sample) Max() float64 { return s.Quantile(1) }

// Min returns the smallest observation (zero when empty).
func (s *Sample) Min() float64 { return s.Quantile(0) }

// Values returns a copy of the observations (unspecified order).
func (s *Sample) Values() []float64 {
	return append([]float64(nil), s.values...)
}

// DurationStats accumulates statistics over time.Duration observations,
// combining streaming moments with an exact-quantile sample. The zero value
// is ready to use.
type DurationStats struct {
	w Welford
	s Sample
}

// Add incorporates one duration observation.
func (d *DurationStats) Add(v time.Duration) {
	x := float64(v)
	d.w.Add(x)
	d.s.Add(x)
}

// Count returns the number of observations.
func (d *DurationStats) Count() uint64 { return d.w.Count() }

// Mean returns the mean duration.
func (d *DurationStats) Mean() time.Duration { return time.Duration(d.w.Mean()) }

// StdDev returns the standard deviation.
func (d *DurationStats) StdDev() time.Duration { return time.Duration(d.w.StdDev()) }

// Min returns the smallest observation.
func (d *DurationStats) Min() time.Duration { return time.Duration(d.w.Min()) }

// Max returns the largest observation.
func (d *DurationStats) Max() time.Duration { return time.Duration(d.w.Max()) }

// Quantile returns the q-quantile of the sample.
func (d *DurationStats) Quantile(q float64) time.Duration {
	return time.Duration(d.s.Quantile(q))
}

// FillHistogram adds every observation into the histogram (for
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

// FormatKbps renders a rate with one decimal, e.g. "64.0".
func FormatKbps(v float64) string { return fmt.Sprintf("%.1f", v) }
