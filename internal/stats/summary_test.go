package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if s.Mean != 5 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	wantSD := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev-wantSD) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", s.StdDev, wantSD)
	}
	// CI95 = t_{0.975,7} * sd / sqrt(8).
	wantCI := 2.365 * wantSD / math.Sqrt(8)
	if math.Abs(s.CI95-wantCI) > 1e-9 {
		t.Fatalf("ci95 = %v, want %v", s.CI95, wantCI)
	}
}

func TestSummarizeDegenerate(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.CI95 != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.CI95 != 0 || s.StdDev != 0 {
		t.Fatalf("single-value summary = %+v", s)
	}
	if got := s.FormatMeanCI(); got != "42.0" {
		t.Fatalf("FormatMeanCI = %q", got)
	}
}

func TestFormatMeanCI(t *testing.T) {
	s := Summarize([]float64{10, 12, 14})
	got := s.FormatMeanCI()
	if !strings.Contains(got, "±") || !strings.HasPrefix(got, "12.0") {
		t.Fatalf("FormatMeanCI = %q", got)
	}
}

func TestTQuantileMonotone(t *testing.T) {
	for df := 1; df < 40; df++ {
		q := tQuantile975(df)
		if q < 1.95 {
			t.Fatalf("t(%d) = %v below the normal quantile", df, q)
		}
		if df > 1 && q > tQuantile975(df-1) {
			t.Fatalf("t not non-increasing at df %d", df)
		}
	}
	if tQuantile975(0) != 0 {
		t.Fatal("df 0 must be 0")
	}
}

func TestWelfordMergeMatchesSerial(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7}
	var serial Welford
	for _, x := range xs {
		serial.Add(x)
	}
	for split := 0; split <= len(xs); split++ {
		var a, b Welford
		for _, x := range xs[:split] {
			a.Add(x)
		}
		for _, x := range xs[split:] {
			b.Add(x)
		}
		a.Merge(b)
		if a.Count() != serial.Count() {
			t.Fatalf("split %d: count %d", split, a.Count())
		}
		if math.Abs(a.Mean()-serial.Mean()) > 1e-12 {
			t.Fatalf("split %d: mean %v vs %v", split, a.Mean(), serial.Mean())
		}
		if math.Abs(a.Variance()-serial.Variance()) > 1e-9 {
			t.Fatalf("split %d: var %v vs %v", split, a.Variance(), serial.Variance())
		}
		if a.Min() != serial.Min() || a.Max() != serial.Max() {
			t.Fatalf("split %d: min/max %v/%v", split, a.Min(), a.Max())
		}
	}
}

func TestDurationStatsMerge(t *testing.T) {
	var a, b, pooled DurationStats
	for i := 1; i <= 10; i++ {
		d := time.Duration(i) * time.Millisecond
		pooled.Add(d)
		if i <= 5 {
			a.Add(d)
		} else {
			b.Add(d)
		}
	}
	a.Merge(&b)
	if a.Count() != pooled.Count() {
		t.Fatalf("count = %d, want %d", a.Count(), pooled.Count())
	}
	if a.Max() != pooled.Max() || a.Min() != pooled.Min() {
		t.Fatalf("min/max = %v/%v", a.Min(), a.Max())
	}
	if a.Mean() != pooled.Mean() {
		t.Fatalf("mean = %v, want %v", a.Mean(), pooled.Mean())
	}
	if a.Quantile(0.5) != pooled.Quantile(0.5) {
		t.Fatalf("median = %v, want %v", a.Quantile(0.5), pooled.Quantile(0.5))
	}
	// Merging a nil is a no-op.
	before := a.Count()
	a.Merge(nil)
	if a.Count() != before {
		t.Fatal("nil merge changed the stats")
	}
}

func TestSampleMergeSeenAccounting(t *testing.T) {
	var src, dst Sample
	for i := 0; i < 100; i++ {
		src.Add(float64(i))
	}
	dst.Add(1000)
	dst.Merge(&src)
	// The merged store accounts for everything both sides saw.
	if dst.Count() != 101 {
		t.Fatalf("Count = %d, want 101", dst.Count())
	}
	if dst.Min() != 0 || dst.Max() != 1000 || dst.Quantile(0.5) != 50 {
		t.Fatalf("merged min/median/max = %v/%v/%v, want 0/50/1000", dst.Min(), dst.Quantile(0.5), dst.Max())
	}
}
