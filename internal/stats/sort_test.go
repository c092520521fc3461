package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// reference returns v sorted by sort.Float64s, leaving v as it is.
func reference(v []float64) []float64 {
	want := slices.Clone(v)
	sort.Float64s(want)
	return want
}

// sameBits reports whether a and b hold the same float64 bit patterns in
// the same order (== would equate +0 with -0 and refuse NaN).
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// sortGenerators draw non-negative, non-NaN samples of every shape the
// radix sort must order as sort.Float64s does.
var sortGenerators = []struct {
	name string
	draw func(rng *rand.Rand) float64
}{
	{"integral-ns", func(rng *rand.Rand) float64 { return float64(rng.Int63n(int64(40 * time.Millisecond))) }},
	{"integral-wide", func(rng *rand.Rand) float64 { return float64(rng.Int63() >> rng.Intn(63)) }},
	{"fractional", func(rng *rand.Rand) float64 { return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(40)-20)) }},
	{"duplicates", func(rng *rand.Rand) float64 { return float64(rng.Intn(3)) * 625e3 }},
	{"specials", func(rng *rand.Rand) float64 {
		return [...]float64{0, math.SmallestNonzeroFloat64, 0x1p-1030, 1, math.MaxFloat64, math.Inf(1)}[rng.Intn(6)]
	}},
	{"subnormal", func(rng *rand.Rand) float64 { return math.Float64frombits(uint64(rng.Int63n(1 << 52))) }},
	{"any-bits", func(rng *rand.Rand) float64 { return math.Float64frombits(uint64(rng.Int63n(maxRadixBits + 1))) }},
}

// TestSortValuesMatchesFloat64s checks, for every generator and every
// length from 0 to 300 (across radixMin), that sortValues and radixSort
// leave the bit-identical array sort.Float64s does.
func TestSortValuesMatchesFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, g := range sortGenerators {
		for n := 0; n <= 300; n++ {
			v := make([]float64, n)
			for i := range v {
				v[i] = g.draw(rng)
			}
			want := reference(v)
			got := slices.Clone(v)
			sortValues(got)
			if !sameBits(got, want) {
				t.Fatalf("%s/%d: sortValues = %v, want %v", g.name, n, got, want)
			}
			got = slices.Clone(v)
			if !radixSort(got, make([]float64, n)) {
				t.Fatalf("%s/%d: radixSort refused non-negative values", g.name, n)
			}
			if !sameBits(got, want) {
				t.Fatalf("%s/%d: radixSort = %v, want %v", g.name, n, got, want)
			}
		}
	}
}

// TestSortValuesFallback checks that a sample holding a negative value,
// -0 or NaN is not radix-sorted, and still sorts as sort.Float64s does.
func TestSortValuesFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, odd := range []float64{-1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF0_0000_0000_0001), math.Float64frombits(0xFFF8_0000_0000_0000)} {
		for _, n := range []int{1, radixMin - 1, radixMin, 300} {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(rng.Int63n(1e8))
			}
			v[rng.Intn(n)] = odd
			kept := slices.Clone(v)
			if radixSort(v, make([]float64, n)) || !sameBits(v, kept) {
				t.Fatalf("radixSort took %v", odd)
			}
			want := reference(v)
			sortValues(v)
			if !sameBits(v, want) {
				t.Fatalf("%v/%d: sortValues differs from sort.Float64s", odd, n)
			}
		}
	}
}

// TestSampleQuantileRadix checks the quantiles a radix-sorted sample
// answers against the sorted reference, and that later Adds re-sort.
func TestSampleQuantileRadix(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var s Sample
	var all []float64
	for round := 0; round < 3; round++ {
		for i := 0; i < 500; i++ {
			x := float64(rng.Int63n(int64(40 * time.Millisecond)))
			s.Add(x)
			all = append(all, x)
		}
		want := reference(all)
		pos := 0.99 * float64(len(want)-1)
		lo, frac := int(pos), pos-math.Floor(pos)
		if got, p99 := s.Quantile(0.99), want[lo]*(1-frac)+want[lo+1]*frac; got != p99 {
			t.Fatalf("round %d: p99 %v, want %v", round, got, p99)
		}
		if !sameBits(s.values, want) {
			t.Fatalf("round %d: sample not in sort.Float64s order", round)
		}
		if s.Min() != want[0] || s.Max() != want[len(want)-1] {
			t.Fatalf("round %d: min/max %v/%v, want %v/%v", round, s.Min(), s.Max(), want[0], want[len(want)-1])
		}
	}
}

// FuzzSampleSort is a differential fuzz of the sample sort against
// sort.Float64s: the input's 8-byte words are the values, once as given
// (mostly the fallback) and once with the sign bit cleared and NaN
// folded to +Inf (the radix path when long enough). radixSort is also
// checked on its own at every length.
func FuzzSampleSort(f *testing.F) {
	for _, seed := range [][]float64{
		{},
		{1},
		{3, 1, 2, 1, 0, math.Inf(1), math.MaxFloat64, math.SmallestNonzeroFloat64},
		{-1, math.Copysign(0, -1), 0, math.NaN(), 2},
	} {
		var b []byte
		for _, x := range seed {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		f.Add(b)
	}
	rng := rand.New(rand.NewSource(32))
	long := make([]byte, 8*300)
	for i := 0; i < 300; i++ {
		binary.LittleEndian.PutUint64(long[8*i:], math.Float64bits(float64(rng.Int63n(1e8))))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		v := make([]float64, len(data)/8)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		check := func(v []float64) {
			want := reference(v)
			got := slices.Clone(v)
			sortValues(got)
			if !sameBits(got, want) {
				t.Fatalf("sortValues(%v) = %v, want %v", v, got, want)
			}
			got = slices.Clone(v)
			if radixSort(got, make([]float64, len(v))) && !sameBits(got, want) {
				t.Fatalf("radixSort(%v) = %v, want %v", v, got, want)
			}
		}
		check(v)
		for i, x := range v {
			if b := math.Float64bits(x) &^ (1 << 63); b <= maxRadixBits {
				v[i] = math.Float64frombits(b)
			} else {
				v[i] = math.Inf(1)
			}
		}
		check(v)
	})
}

// TestGrowReserves checks that n Adds after Grow(n) allocate nothing, and
// that Grow keeps the observations and statistics as they were.
func TestGrowReserves(t *testing.T) {
	const n, runs = 1000, 5
	var d DurationStats
	d.Add(7)
	d.Grow(n * (runs + 1))
	if d.Count() != 1 || d.Min() != 7 || d.Quantile(0.5) != 7 {
		t.Fatalf("Grow changed the statistics: count %d min %v p50 %v", d.Count(), d.Min(), d.Quantile(0.5))
	}
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < n; i++ {
			d.Add(time.Duration(i))
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per %d Adds after Grow", allocs, n)
	}
	if got, want := d.Count(), uint64(1+n*(runs+1)); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	var empty DurationStats
	empty.Grow(0)
	if empty.Count() != 0 || empty.Quantile(0.99) != 0 {
		t.Fatal("Grow(0) on an empty sample changed it")
	}
}

// BenchmarkSampleQuantile prices the first quantile of an unsorted
// sample of integral nanosecond delays (the collect-time p99), the sort
// included, at a catalogue flow's size (750) and a long flow's (6,000).
func BenchmarkSampleQuantile(b *testing.B) {
	for _, n := range []int{750, 6000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := delaySample(n, false).s.values
			s := Sample{values: make([]float64, n)}
			b.ReportAllocs()
			for b.Loop() {
				copy(s.values, src)
				s.sorted = false
				s.Quantile(0.99)
			}
		})
	}
}

// BenchmarkSampleSort compares the radix sort with sort.Float64s on
// integral nanosecond delays at sizes around radixMin.
func BenchmarkSampleSort(b *testing.B) {
	for _, n := range []int{64, 128, 160, 192, 256} {
		src := delaySample(n, false).s.values
		v := make([]float64, n)
		buf := make([]float64, n)
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				copy(v, src)
				radixSort(v, buf)
			}
		})
		b.Run(fmt.Sprintf("float64s/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				copy(v, src)
				sort.Float64s(v)
			}
		})
	}
}
