package stats

import (
	"fmt"
	"math"
)

// Summary condenses a set of replicated measurements (one value per
// independently seeded run) into the quantities the experiment tables
// report: mean, extremes, and the 95% confidence interval of the mean.
type Summary struct {
	N    int
	Mean float64
	Min  float64
	Max  float64
	// StdDev is the unbiased sample standard deviation (zero for N < 2).
	StdDev float64
	// CI95 is the half-width of the two-sided 95% confidence interval of
	// the mean, using the Student t quantile for N-1 degrees of freedom
	// (zero for N < 2).
	CI95 float64
}

// Summarize computes the Summary of a set of measurements.
func Summarize(xs []float64) Summary {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Summary()
}

// Summary condenses the accumulator into a Summary.
func (w *Welford) Summary() Summary {
	s := Summary{
		N:      int(w.Count()),
		Mean:   w.Mean(),
		Min:    w.Min(),
		Max:    w.Max(),
		StdDev: w.StdDev(),
	}
	if s.N >= 2 {
		s.CI95 = tQuantile975(s.N-1) * s.StdDev / math.Sqrt(float64(s.N))
	}
	return s
}

// FormatMeanCI renders "mean±ci" with one decimal each (e.g. "256.0±1.2"),
// degrading to the bare mean when no interval is available.
func (s Summary) FormatMeanCI() string {
	if s.N < 2 || s.CI95 == 0 {
		return fmt.Sprintf("%.1f", s.Mean)
	}
	return fmt.Sprintf("%.1f±%.1f", s.Mean, s.CI95)
}

// tTable975 holds the 0.975 quantile of the Student t distribution for
// 1..30 degrees of freedom; beyond that the normal quantile 1.96 is close
// enough for reporting purposes.
var tTable975 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tQuantile975(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= len(tTable975) {
		return tTable975[df-1]
	}
	return 1.96
}

// Merge folds another accumulator into w, as if every observation of other
// had been Added to w (Chan et al.'s parallel update, exact up to floating
// point). Replicated simulation runs each own a Welford; merging them
// yields the pooled moments without retaining samples.
func (w *Welford) Merge(other Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = other
		return
	}
	n := w.n + other.n
	delta := other.mean - w.mean
	w.mean += delta * float64(other.n) / float64(n)
	w.m2 += other.m2 + delta*delta*float64(w.n)*float64(other.n)/float64(n)
	w.n = n
	if other.min < w.min {
		w.min = other.min
	}
	if other.max > w.max {
		w.max = other.max
	}
}

// Merge folds another sample store into s, as if every observation of
// other had been Added to s.
func (s *Sample) Merge(other *Sample) {
	if other == nil || len(other.values) == 0 {
		return
	}
	s.values = append(s.values, other.values...)
	s.sorted = false
}

// Merge folds another DurationStats into d: moments and extremes merge
// exactly; the quantile sample absorbs other's observations.
func (d *DurationStats) Merge(other *DurationStats) {
	if other == nil {
		return
	}
	d.w.Merge(other.w)
	d.s.Merge(&other.s)
}
