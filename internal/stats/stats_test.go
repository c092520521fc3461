package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestWelfordAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w Welford
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*5 + 10
		xs = append(xs, x)
		w.Add(x)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	variance := sq / float64(len(xs)-1)
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Fatalf("Mean = %v, naive %v", w.Mean(), mean)
	}
	if math.Abs(w.Variance()-variance) > 1e-6 {
		t.Fatalf("Variance = %v, naive %v", w.Variance(), variance)
	}
	mn, mx := xs[0], xs[0]
	for _, x := range xs {
		mn = math.Min(mn, x)
		mx = math.Max(mx, x)
	}
	if w.Min() != mn || w.Max() != mx {
		t.Fatalf("Min/Max = %v/%v, naive %v/%v", w.Min(), w.Max(), mn, mx)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.Min() != 0 || w.Max() != 0 || w.Count() != 0 {
		t.Fatal("empty Welford should be all-zero")
	}
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 || w.Min() != 42 || w.Max() != 42 {
		t.Fatalf("single-observation Welford wrong: %+v", w)
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 100; i >= 1; i-- {
		s.Add(float64(i))
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("Q0 = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("Q1 = %v, want 100", got)
	}
	if got := s.Quantile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("median = %v, want 50.5", got)
	}
	if got := s.Quantile(0.99); math.Abs(got-99.01) > 1e-9 {
		t.Fatalf("p99 = %v, want 99.01", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Fatal("empty sample should return zeros")
	}
}

func TestDurationStats(t *testing.T) {
	var d DurationStats
	for i := 1; i <= 10; i++ {
		d.Add(time.Duration(i) * time.Millisecond)
	}
	if d.Count() != 10 {
		t.Fatalf("Count = %d", d.Count())
	}
	if got := d.Mean(); got != 5500*time.Microsecond {
		t.Fatalf("Mean = %v, want 5.5ms", got)
	}
	if got := d.Max(); got != 10*time.Millisecond {
		t.Fatalf("Max = %v, want 10ms", got)
	}
	if got := d.Min(); got != time.Millisecond {
		t.Fatalf("Min = %v, want 1ms", got)
	}
	if got := d.Quantile(0.5); got != 5500*time.Microsecond {
		t.Fatalf("median = %v, want 5.5ms", got)
	}
	var zero DurationStats
	zero.Add(time.Second)
	if zero.Max() != time.Second {
		t.Fatal("zero-value DurationStats not usable")
	}
}

func TestMeter(t *testing.T) {
	var m Meter
	m.Add(1000)
	m.Add(1000)
	m.Add(-5) // ignored
	if m.Bytes() != 2000 || m.Packets() != 2 {
		t.Fatalf("Meter = %d bytes %d packets", m.Bytes(), m.Packets())
	}
	if got := m.BitsPerSecond(time.Second); got != 16000 {
		t.Fatalf("BitsPerSecond = %v, want 16000", got)
	}
	if got := m.Kbps(2 * time.Second); got != 8 {
		t.Fatalf("Kbps = %v, want 8", got)
	}
	if got := m.BitsPerSecond(0); got != 0 {
		t.Fatalf("BitsPerSecond(0) = %v, want 0", got)
	}
}

func TestFairness(t *testing.T) {
	if got := Fairness(nil); got != 1 {
		t.Fatalf("Fairness(nil) = %v, want 1", got)
	}
	if got := Fairness([]float64{0, 0}); got != 1 {
		t.Fatalf("Fairness(zeros) = %v, want 1", got)
	}
	if got := Fairness([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Fairness(equal) = %v, want 1", got)
	}
	if got := Fairness([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("Fairness(single) = %v, want 0.25", got)
	}
}

// TestPropertyQuantileMatchesSorted: Quantile(k/(n-1)) equals the k-th
// sorted value.
func TestPropertyQuantileMatchesSorted(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r)
			s.Add(float64(r))
		}
		sort.Float64s(vals)
		for k := range vals {
			q := 0.0
			if len(vals) > 1 {
				q = float64(k) / float64(len(vals)-1)
			}
			if math.Abs(s.Quantile(q)-vals[k]) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(47))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTableText(t *testing.T) {
	tbl := NewTable("Figure X", "slave", "kbps")
	tbl.AddRow("S1", 64.0)
	tbl.AddRow("S2", 128.0)
	out := tbl.String()
	if !strings.Contains(out, "Figure X") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "slave") || !strings.Contains(out, "S2") {
		t.Fatalf("missing cells:\n%s", out)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
	rows := tbl.Rows()
	if rows[0][0] != "S1" || rows[1][1] != "128" {
		t.Fatalf("Rows = %v", rows)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	tbl.AddRow("x,y", `quote"me`)
	tbl.AddRow(1) // short row padded
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "a,b\n\"x,y\",\"quote\"\"me\"\n1,\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
