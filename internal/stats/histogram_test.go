package stats

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42} {
		h.Add(x)
	}
	if h.Count() != 8 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Underflow() != 1 || h.Overflow() != 2 {
		t.Fatalf("under/over = %d/%d, want 1/2", h.Underflow(), h.Overflow())
	}
	wantBins := []uint64{2, 1, 1, 0, 1} // [0,2): {0,1.9}; [2,4): {2}; [4,6): {5}; [8,10): {9.99}
	for i, want := range wantBins {
		lo, hi, c := h.Bin(i)
		if c != want {
			t.Fatalf("bin %d [%v,%v) = %d, want %d", i, lo, hi, c, want)
		}
	}
	if _, _, c := h.Bin(99); c != 0 {
		t.Fatal("out-of-range bin should be empty")
	}
}

func TestHistogramDegenerateShape(t *testing.T) {
	h := NewHistogram(5, 5, 0)
	h.Add(5)
	if h.NumBins() != 1 || h.Count() != 1 {
		t.Fatalf("degenerate histogram: bins=%d count=%d", h.NumBins(), h.Count())
	}
}

func TestHistogramCumulative(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	if got := h.CumulativeAt(0); got != 0 {
		t.Fatalf("CDF(0) = %v", got)
	}
	if got := h.CumulativeAt(50); got < 0.45 || got > 0.55 {
		t.Fatalf("CDF(50) = %v, want ~0.5", got)
	}
	if got := h.CumulativeAt(1000); got != 1 {
		t.Fatalf("CDF(1000) = %v, want 1", got)
	}
	var empty Histogram
	if got := empty.CumulativeAt(1); got != 0 {
		t.Fatalf("empty CDF = %v", got)
	}
}

func TestHistogramASCII(t *testing.T) {
	h := NewHistogram(0, 4, 2)
	h.Add(-1)
	h.Add(1)
	h.Add(1)
	h.Add(3)
	h.Add(9)
	var sb strings.Builder
	if err := h.WriteASCII(&sb, nil, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"< 0", ">= 4", "##"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ASCII output missing %q:\n%s", want, out)
		}
	}
}

func TestDurationHistogram(t *testing.T) {
	d := NewDurationHistogram(50*time.Millisecond, 10)
	for i := 0; i < 100; i++ {
		d.Add(time.Duration(i) * 500 * time.Microsecond) // 0..49.5ms
	}
	if d.Count() != 100 || d.Overflow() != 0 {
		t.Fatalf("count=%d overflow=%d", d.Count(), d.Overflow())
	}
	if got := d.CumulativeAt(25 * time.Millisecond); got < 0.45 || got > 0.55 {
		t.Fatalf("CDF(25ms) = %v", got)
	}
	var sb strings.Builder
	if err := d.WriteASCII(&sb, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ms") {
		t.Fatalf("duration labels missing:\n%s", sb.String())
	}
}

// TestPropertyHistogramConservation: every observation lands in exactly one
// bucket (bins + underflow + overflow == count), and the CDF is monotone.
func TestPropertyHistogramConservation(t *testing.T) {
	f := func(raw []int16) bool {
		h := NewHistogram(-100, 100, 8)
		for _, r := range raw {
			h.Add(float64(r))
		}
		var total uint64 = h.Underflow() + h.Overflow()
		for i := 0; i < h.NumBins(); i++ {
			_, _, c := h.Bin(i)
			total += c
		}
		if total != h.Count() || h.Count() != uint64(len(raw)) {
			return false
		}
		prev := -1.0
		for x := -150.0; x <= 150; x += 10 {
			cdf := h.CumulativeAt(x)
			if cdf < prev-1e-12 || cdf < 0 || cdf > 1 {
				return false
			}
			prev = cdf
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(97))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFillHistogram checks that FillHistogram bins every observation, as
// one Add per value would, without copying the sample.
func TestFillHistogram(t *testing.T) {
	d := delaySample(1000, false)
	want := NewDurationHistogram(30*time.Millisecond, 12)
	for _, v := range d.s.values {
		want.Add(time.Duration(v))
	}
	got := NewDurationHistogram(30*time.Millisecond, 12)
	d.FillHistogram(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FillHistogram binned %+v, want %+v", got.h, want.h)
	}
	if allocs := testing.AllocsPerRun(5, func() { d.FillHistogram(got) }); allocs != 0 {
		t.Fatalf("FillHistogram allocates %v times", allocs)
	}
	d.FillHistogram(nil)
}
