package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Gob support for the accumulator types, so completed measurements can be
// persisted (the harness run cache stores scenario results on disk). The
// GobEncode/GobDecode pairs emit flat byte encodings rather than nested
// gob streams, so decoding a value costs a copy, not a fresh gob.Decoder
// that re-sends and re-compiles its wire type every time.
//
// Every encoding starts with a format byte naming its type and layout:
//
//	Welford        fmtWelford, n, mean, m2, min, max (uint64/float64 bits,
//	               little-endian, fixed width)
//	Sample         fmtSample, sorted (0/1), cap (varint), seen (uvarint),
//	               rnd (8 bytes little-endian), count (uvarint), then count
//	               values, each uvarint(bits.ReverseBytes64(float bits)) —
//	               gob's own compact float form, short for the integral
//	               nanosecond delays the simulator records
//	DurationStats  fmtDurationStats, Welford encoding, Sample encoding
//
// The encodings capture the complete internal state — including the
// reservoir RNG state of Sample — so a decoded accumulator behaves
// bit-identically to the original under further Adds, and round-tripping
// preserves every float64 bit pattern. Decoders accept only the canonical
// bytes their encoder writes: a wrong format byte, a short or overlong
// input, a non-minimal varint or a value count larger than the remaining
// input is an error, so bytes of another format are refused, never
// misread.

const (
	fmtWelford       byte = 0xB1
	fmtSample        byte = 0xB2
	fmtDurationStats byte = 0xB3
)

// welfordSize is the fixed length of a Welford encoding.
const welfordSize = 1 + 5*8

// sampleCap sizes a Sample encoding's buffer: the header at its widest
// plus six bytes a value, the compact width of a nanosecond delay.
func sampleCap(n int) int { return 2 + 3*binary.MaxVarintLen64 + 8 + 6*n }

// GobEncode implements gob.GobEncoder.
func (w Welford) GobEncode() ([]byte, error) {
	return w.appendBinary(make([]byte, 0, welfordSize)), nil
}

// GobDecode implements gob.GobDecoder.
func (w *Welford) GobDecode(data []byte) error {
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

// GobEncode implements gob.GobEncoder.
func (s Sample) GobEncode() ([]byte, error) {
	return s.appendBinary(make([]byte, 0, sampleCap(len(s.values)))), nil
}

// GobDecode implements gob.GobDecoder.
func (s *Sample) GobDecode(data []byte) error {
	rest, err := s.decode(data)
	if err == nil && len(rest) != 0 {
		err = errTrailing
	}
	if err != nil {
		return fmt.Errorf("stats: sample: %w", err)
	}
	return nil
}

func (s *Sample) appendBinary(b []byte) []byte {
	b = append(b, fmtSample)
	if s.sorted {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, int64(s.cap))
	b = binary.AppendUvarint(b, s.seen)
	b = binary.LittleEndian.AppendUint64(b, s.rnd)
	b = binary.AppendUvarint(b, uint64(len(s.values)))
	for _, x := range s.values {
		b = binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(x)))
	}
	return b
}

// decode reads one Sample encoding from the front of data and returns
// the bytes after it.
func (s *Sample) decode(data []byte) ([]byte, error) {
	if len(data) < 2 || data[0] != fmtSample || data[1] > 1 {
		return nil, errFormat
	}
	sorted := data[1] == 1
	r := reader{b: data[2:]}
	capacity := r.varint()
	seen := r.uvarint()
	rnd := r.fixed64()
	count := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	// Every value takes at least one byte: a larger count is damage, and
	// refusing it here keeps a forged count from sizing the allocation.
	if count > uint64(len(r.b)) {
		return nil, errFormat
	}
	var values []float64
	b := r.b
	if count > 0 {
		values = make([]float64, count)
		for i := range values {
			x, n := binary.Uvarint(b)
			if err := varintErr(b, n); err != nil {
				return nil, err
			}
			values[i] = math.Float64frombits(bits.ReverseBytes64(x))
			b = b[n:]
		}
	}
	*s = Sample{values: values, sorted: sorted, cap: int(capacity), seen: seen, rnd: rnd}
	return b, nil
}

// GobEncode implements gob.GobEncoder.
func (d DurationStats) GobEncode() ([]byte, error) {
	b := make([]byte, 0, 1+welfordSize+sampleCap(len(d.s.values)))
	b = append(b, fmtDurationStats)
	b = d.w.appendBinary(b)
	return d.s.appendBinary(b), nil
}

// GobDecode implements gob.GobDecoder.
func (d *DurationStats) GobDecode(data []byte) error {
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
	*d = out
	return nil
}

var (
	errFormat    = errors.New("unknown or malformed encoding")
	errTruncated = errors.New("truncated encoding")
	errTrailing  = errors.New("trailing bytes after encoding")
)

// reader decodes the variable-width fields of the flat encodings. The
// first failure sticks in err and every later read returns zero.
type reader struct {
	b   []byte
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b)
	if r.err = varintErr(r.b, n); r.err != nil {
		return 0
	}
	r.b = r.b[n:]
	return x
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.b)
	if r.err = varintErr(r.b, n); r.err != nil {
		return 0
	}
	r.b = r.b[n:]
	return x
}

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

func (r *reader) fixed64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = errTruncated
		return 0
	}
	x := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return x
}
