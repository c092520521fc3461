package stats

import (
	"math"
	"sort"
	"sync"
)

// radixMin is the smallest sample the radix sort handles. Below it
// sort.Float64s is faster: on integral nanosecond delays the two meet
// between 160 and 192 values, and at 256 the radix sort takes about 15%
// less time (BenchmarkSampleSort, 2 vCPUs, go1.24.0).
const radixMin = 192

// maxRadixBits is the largest IEEE-754 bit pattern the radix sort takes:
// +Inf. Every value at or below it has its sign bit clear and is not
// NaN, so its bits order exactly as its values do.
const maxRadixBits = 0x7FF0_0000_0000_0000

// radixScratch pools the radix sort's scatter buffers, so sorting a
// sample costs no allocation once a buffer of its size exists.
var radixScratch = sync.Pool{New: func() any { return new([]float64) }}

// sortValues sorts v ascending into exactly the order sort.Float64s
// gives. A sample of radixMin or more values, each with its sign bit
// clear and not NaN — every simulator delay qualifies — is sorted by an
// LSD radix sort over its IEEE-754 bits in byte digits; any other sample
// falls back to sort.Float64s. For such values numeric order is bit
// order, and equal values have equal bits, so both sorts yield the same
// array.
func sortValues(v []float64) {
	if len(v) >= radixMin {
		buf := radixScratch.Get().(*[]float64)
		if cap(*buf) < len(v) {
			*buf = make([]float64, len(v))
		}
		sorted := radixSort(v, (*buf)[:len(v)])
		radixScratch.Put(buf)
		if sorted {
			return
		}
	}
	sort.Float64s(v)
}

// radixSort sorts v by the eight bytes of its values' bit patterns, from
// the least significant up, using buf (as long as v) as scatter space. A
// byte equal across the whole sample orders nothing and is skipped:
// integral nanosecond delays share their low mantissa bytes and their top
// exponent byte, so about four of the eight passes run. If a value has
// its sign bit set or is NaN, radixSort leaves v as it is and returns
// false.
func radixSort(v, buf []float64) bool {
	if len(v) == 0 {
		return true
	}
	// One pass checks every value, counts every digit, and sets diff
	// wherever some value's bits differ from the first's.
	var counts [8][256]int
	first := math.Float64bits(v[0])
	var diff uint64
	for _, x := range v {
		b := math.Float64bits(x)
		if b > maxRadixBits {
			return false
		}
		diff |= b ^ first
		counts[0][byte(b)]++
		counts[1][byte(b>>8)]++
		counts[2][byte(b>>16)]++
		counts[3][byte(b>>24)]++
		counts[4][byte(b>>32)]++
		counts[5][byte(b>>40)]++
		counts[6][byte(b>>48)]++
		counts[7][byte(b>>56)]++
	}
	src, dst := v, buf
	for d := range counts {
		shift := uint(8 * d)
		if byte(diff>>shift) == 0 {
			continue
		}
		// next[k] becomes where the next value with digit k goes in dst.
		next := &counts[d]
		sum := 0
		for k, n := range next {
			next[k] = sum
			sum += n
		}
		for _, x := range src {
			k := byte(math.Float64bits(x) >> shift)
			dst[next[k]] = x
			next[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &v[0] {
		copy(v, src)
	}
	return true
}
