package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Flat byte encodings of the accumulator types, so completed measurements
// can be persisted: the harness run cache writes them into its entries.
// Decoding a value costs one pass over its bytes.
//
// Every encoding starts with a format byte naming its type and layout:
//
//	Welford        fmtWelford, n, mean, m2, min, max (uint64/float64 bits,
//	               little-endian, fixed width)
//	Sample         fmtSample, layout (below), count (uvarint), then count
//	               values in the layout's form
//	DurationStats  fmtDurationStats, Welford encoding, Sample encoding
//
// A Sample's layout byte names how its values are written:
//
//	0  unsorted         each value uvarint(bits.ReverseBytes64(float bits)),
//	                    gob's own compact float form
//	1  sorted raw       as layout 0, values in sort.Float64s order
//	2  sorted integral  each value the uvarint delta from the previous
//	                    one, starting at 0; every value a non-negative
//	                    integer below 2^53 with the sign bit clear
//
// The encoder writes layout 2 whenever the sample is sorted and every
// value qualifies. The simulator's delay samples are integral
// nanoseconds, sorted by the Quantile the collectors take before a result
// is stored, so a cached delay costs about 2.6 bytes instead of 6.
//
// A Sample keeps every observation, so the encodings capture the complete
// internal state: a decoded accumulator behaves bit-identically to the
// original under further Adds, and round-tripping preserves every float64
// bit pattern. Decoders accept only the canonical bytes their encoder
// writes: a wrong format byte, a short or overlong input, a non-minimal
// varint, a value count larger than the remaining input, a sorted layout
// over values out of order, a delta sum of 2^53 or more, a layout-1
// encoding that layout 2 could have written, or a DurationStats whose
// moments count other than its sample's values is an error, so bytes of
// another format are refused, never misread. fmtSample 0xB2 named an
// older Sample layout that also carried a reservoir's capacity, count
// and RNG state; its bytes are refused.

const (
	fmtWelford       byte = 0xB1
	fmtDurationStats byte = 0xB3
	fmtSample        byte = 0xB4
)

// Sample layouts: the byte after fmtSample.
const (
	layoutUnsorted byte = iota
	layoutSorted
	layoutDelta
)

// deltaLimit bounds layout 2's values: every integer below it is exact
// in a float64.
const deltaLimit = 1 << 53

// welfordSize is the fixed length of a Welford encoding.
const welfordSize = 1 + 5*8

// sampleCap sizes a Sample encoding's buffer: the header at its widest
// plus, per value, three bytes for a delta (deltas below 2^21) or six for
// the compact raw width of a nanosecond delay.
func sampleCap(layout byte, n int) int {
	width := 6
	if layout == layoutDelta {
		width = 3
	}
	return 2 + binary.MaxVarintLen64 + width*n
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (w Welford) MarshalBinary() ([]byte, error) {
	return w.appendBinary(make([]byte, 0, welfordSize)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (w *Welford) UnmarshalBinary(data []byte) error {
	if err := w.decode(data); err != nil {
		return fmt.Errorf("stats: welford: %w", err)
	}
	return nil
}

func (w *Welford) appendBinary(b []byte) []byte {
	b = append(b, fmtWelford)
	b = binary.LittleEndian.AppendUint64(b, w.n)
	for _, x := range [...]float64{w.mean, w.m2, w.min, w.max} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func (w *Welford) decode(data []byte) error {
	if len(data) != welfordSize || data[0] != fmtWelford {
		return errFormat
	}
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*i:])) }
	*w = Welford{n: binary.LittleEndian.Uint64(data[1:]), mean: f(1), m2: f(2), min: f(3), max: f(4)}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s Sample) MarshalBinary() ([]byte, error) {
	layout := s.layout()
	return s.appendBinary(make([]byte, 0, sampleCap(layout, len(s.values))), layout), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Sample) UnmarshalBinary(data []byte) error {
	rest, err := s.decode(data)
	if err == nil && len(rest) != 0 {
		err = errTrailing
	}
	if err != nil {
		return fmt.Errorf("stats: sample: %w", err)
	}
	return nil
}

// layout picks the layout the encoder writes for the sample.
func (s *Sample) layout() byte {
	switch {
	case !s.sorted:
		return layoutUnsorted
	case integral(s.values):
		return layoutDelta
	}
	return layoutSorted
}

// integral reports whether layout 2 can hold every value: each a
// non-negative integer below 2^53 with the sign bit clear.
func integral(values []float64) bool {
	for _, x := range values {
		if !(x >= 0 && x < deltaLimit) || float64(uint64(x)) != x || math.Signbit(x) {
			return false
		}
	}
	return true
}

func (s *Sample) appendBinary(b []byte, layout byte) []byte {
	b = append(b, fmtSample, layout)
	b = binary.AppendUvarint(b, uint64(len(s.values)))
	if layout == layoutDelta {
		var prev uint64
		for _, x := range s.values {
			b = binary.AppendUvarint(b, uint64(x)-prev)
			prev = uint64(x)
		}
		return b
	}
	for _, x := range s.values {
		b = binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(x)))
	}
	return b
}

// decode reads one Sample encoding from the front of data and returns
// the bytes after it.
func (s *Sample) decode(data []byte) ([]byte, error) {
	if len(data) < 2 || data[0] != fmtSample || data[1] > layoutDelta {
		return nil, errFormat
	}
	layout := data[1]
	b := data[2:]
	count, n := binary.Uvarint(b)
	if err := varintErr(b, n); err != nil {
		return nil, err
	}
	b = b[n:]
	// Every value takes at least one byte: a larger count is damage, and
	// refusing it here keeps a forged count from sizing the allocation.
	if count > uint64(len(b)) {
		return nil, errFormat
	}
	var values []float64
	if count > 0 {
		values = make([]float64, count)
		var err error
		if layout == layoutDelta {
			b, err = readDeltas(b, values)
		} else {
			b, err = readRaw(b, values)
		}
		if err != nil {
			return nil, err
		}
	}
	// Layout 2 is ascending by construction; layout 1 must be in order
	// and must not be what layout 2 would have written.
	if layout == layoutSorted && (!sort.Float64sAreSorted(values) || integral(values)) {
		return nil, errFormat
	}
	*s = Sample{values: values, sorted: layout != layoutUnsorted}
	return b, nil
}

// readRaw fills values from layout 0/1 bytes and returns the rest of b.
func readRaw(b []byte, values []float64) ([]byte, error) {
	for i := range values {
		x, n := binary.Uvarint(b)
		if err := varintErr(b, n); err != nil {
			return nil, err
		}
		values[i] = math.Float64frombits(bits.ReverseBytes64(x))
		b = b[n:]
	}
	return b, nil
}

// readDeltas fills values from layout 2 deltas and returns the rest of b.
// The running sum must stay below 2^53, where every value is exact.
func readDeltas(b []byte, values []float64) ([]byte, error) {
	var sum uint64
	for i := range values {
		d, n := binary.Uvarint(b)
		if err := varintErr(b, n); err != nil {
			return nil, err
		}
		if d >= deltaLimit-sum {
			return nil, errFormat
		}
		sum += d
		values[i] = float64(int64(sum))
		b = b[n:]
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (d DurationStats) MarshalBinary() ([]byte, error) { return d.AppendBinary(nil) }

// AppendBinary implements encoding.BinaryAppender: it appends the bytes
// MarshalBinary returns to b, so an enclosing encoding can write them in
// place, growing b at most once.
func (d DurationStats) AppendBinary(b []byte) ([]byte, error) {
	layout := d.s.layout()
	b = slices.Grow(b, 1+welfordSize+sampleCap(layout, len(d.s.values)))
	b = append(b, fmtDurationStats)
	b = d.w.appendBinary(b)
	return d.s.appendBinary(b, layout), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (d *DurationStats) UnmarshalBinary(data []byte) error {
	if err := d.decode(data); err != nil {
		return fmt.Errorf("stats: duration stats: %w", err)
	}
	return nil
}

func (d *DurationStats) decode(data []byte) error {
	if len(data) < 1+welfordSize || data[0] != fmtDurationStats {
		return errFormat
	}
	var out DurationStats
	if err := out.w.decode(data[1 : 1+welfordSize]); err != nil {
		return err
	}
	rest, err := out.s.decode(data[1+welfordSize:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errTrailing
	}
	// Every Add reaches both halves, so their counts agree; a forged
	// count would otherwise pass as Count and size later buffers.
	if out.w.n != uint64(len(out.s.values)) {
		return errFormat
	}
	*d = out
	return nil
}

var (
	errFormat    = errors.New("unknown or malformed encoding")
	errTruncated = errors.New("truncated encoding")
	errTrailing  = errors.New("trailing bytes after encoding")
)

// varintErr vets a varint read of n bytes from b: n <= 0 is a short or
// overflowing varint, and a multi-byte varint ending in a zero byte is a
// non-minimal encoding the writer never produces.
func varintErr(b []byte, n int) error {
	switch {
	case n == 0:
		return errTruncated
	case n < 0 || (n > 1 && b[n-1] == 0):
		return errFormat
	}
	return nil
}
