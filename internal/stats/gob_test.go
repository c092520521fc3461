package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"time"
)

func roundTrip(t *testing.T, in, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestWelfordGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w Welford
	for i := 0; i < 1000; i++ {
		w.Add(rng.NormFloat64() * 3.7)
	}
	var got Welford
	roundTrip(t, &w, &got)
	if got != w {
		t.Fatalf("round trip changed state: %+v vs %+v", got, w)
	}
	// Decoded accumulators must keep accumulating identically.
	w.Add(1.25)
	got.Add(1.25)
	if got != w {
		t.Fatal("post-decode Add diverged")
	}
}

func TestSampleGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewSample(64)
	for i := 0; i < 500; i++ {
		s.Add(rng.Float64())
	}
	var got Sample
	roundTrip(t, s, &got)
	if got.Count() != s.Count() || got.Retained() != s.Retained() {
		t.Fatalf("counts drifted: %d/%d vs %d/%d", got.Count(), got.Retained(), s.Count(), s.Retained())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got.Quantile(q) != s.Quantile(q) {
			t.Fatalf("quantile %v drifted", q)
		}
	}
	// The reservoir RNG state travels too: identical future replacement
	// decisions on both copies.
	for i := 0; i < 500; i++ {
		x := rng.Float64()
		s.Add(x)
		got.Add(x)
	}
	a, b := s.Values(), got.Values()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reservoir diverged at %d after decode", i)
		}
	}
}

func TestDurationStatsGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDurationStats(128)
	for i := 0; i < 1000; i++ {
		d.Add(time.Duration(rng.Int63n(int64(50 * time.Millisecond))))
	}
	var got DurationStats
	roundTrip(t, d, &got)
	if got.Count() != d.Count() || got.Mean() != d.Mean() || got.Max() != d.Max() ||
		got.Min() != d.Min() || got.StdDev() != d.StdDev() {
		t.Fatal("moments drifted through gob")
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if got.Quantile(q) != d.Quantile(q) {
			t.Fatalf("quantile %v drifted", q)
		}
	}
}

// Gob bytes of the nested-gob encodings these types used before the flat
// format: a Welford over {1.5, 2.25, 4} and a DurationStats (capacity 4)
// over {30ms, 1.25ms, 7ms}. Cached entries of that era must be refused,
// never misread.
const (
	nestedGobWelford       = "3e7f0301010b77656c666f72645769726501ff8000010501014e01060001044d65616e01080001024d3201080001034d696e01080001034d6178010800000021ff80010301f8abaaaaaaaaaa044001f85555555555550a4001fef83f01fe104000"
	nestedGobDurationStats = "2dff81030101116475726174696f6e53746174735769726501ff8200010201015701ff840001015301ff8600000013ff830501010757656c666f726401ff8400000012ff850501010653616d706c6501ff86000000ffecff8201603e7f0301010b77656c666f72645769726501ff8000010501014e01060001044d65616e01080001024d3201080001034d696e01080001034d6178010800000020ff80010301fc9651684101f9e034bfb74ffa4201fcd012334101fc389c7c410001ff8448ff870301010a73616d706c655769726501ff88000105010656616c75657301ff8a000106536f72746564010200010343617001040001045365656e0106000103526e64010600000017ff89020101095b5d666c6f6174363401ff8a000108000022ff880103fc389c7c41fcd0123341fcf0b35a410208010301f89e3779b97f4a7c150000"
)

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reencode decodes data as one accumulator type and encodes the result
// again, per type name.
var reencode = map[string]func(data []byte) ([]byte, error){
	"Welford": func(data []byte) ([]byte, error) {
		var v Welford
		if err := v.GobDecode(data); err != nil {
			return nil, err
		}
		return v.GobEncode()
	},
	"Sample": func(data []byte) ([]byte, error) {
		var v Sample
		if err := v.GobDecode(data); err != nil {
			return nil, err
		}
		return v.GobEncode()
	},
	"DurationStats": func(data []byte) ([]byte, error) {
		var v DurationStats
		if err := v.GobDecode(data); err != nil {
			return nil, err
		}
		return v.GobEncode()
	},
}

// TestGobRejectsMalformed: every decoder refuses damaged, truncated,
// padded or foreign bytes instead of misreading them.
func TestGobRejectsMalformed(t *testing.T) {
	d := NewDurationStats(8)
	for _, v := range []time.Duration{3 * time.Millisecond, 17 * time.Millisecond, 40 * time.Millisecond} {
		d.Add(v)
	}
	good, err := d.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var ok DurationStats
	if err := ok.GobDecode(good); err != nil {
		t.Fatalf("valid encoding refused: %v", err)
	}
	welford, _ := d.w.GobEncode()
	sample, _ := d.s.GobEncode()
	// Header of the sample: format, layout, cap, seen, rnd (8 bytes);
	// then the value count.
	countAt := 1 + 1 + 1 + 1 + 8
	// withSample is good with its sample replaced by a hand-built one.
	withSample := func(layout byte, values ...uint64) []byte {
		return append(append([]byte(nil), good[:1+welfordSize]...), sampleBytes(layout, values...)...)
	}
	half := math.Float64bits(0.5)
	oneDelta := withSample(layoutDelta, 1)
	bad := map[string][]byte{
		"empty":                nil,
		"truncated":            good[:len(good)-1],
		"trailing byte":        append(append([]byte(nil), good...), 0),
		"welford as durations": welford,
		"sample as durations":  sample,
		"undefined layout":     patch(good, 1+welfordSize+1, 3),
		"count beyond input":   patch(good, 1+welfordSize+countAt, 0x7f),
		"non-minimal value":    append(patch(good, 1+welfordSize+countAt, 4), 0x80, 0x00),
		"overflowing varint":   append(patch(good, 1+welfordSize+countAt, 4), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
		"foreign inner format": patch(good, 1, fmtSample),
		"delta sum past 2^53":  withSample(layoutDelta, 1<<52, 1<<52),
		"non-minimal delta":    append(oneDelta[:len(oneDelta)-1], 0x81, 0x00),
		"raw sorted integers":  withSample(layoutSorted, rawBits(1), rawBits(2)),
		"raw sorted empty":     withSample(layoutSorted),
		// Accepted, this would make Quantile(0) return 3.5.
		"sorted out of order": withSample(layoutSorted, rawBits(3.5), half),
	}
	// The hand-built rows are refused for the reason named, not for
	// their framing: the nearest valid neighbour of each is accepted.
	for name, b := range map[string][]byte{
		"delta sum below 2^53": withSample(layoutDelta, 1<<52, 1<<52-1),
		"raw sorted":           withSample(layoutSorted, half, rawBits(3.5)),
		"raw unsorted":         withSample(layoutUnsorted, rawBits(3.5), half),
	} {
		var got DurationStats
		if err := got.GobDecode(b); err != nil {
			t.Errorf("%s: refused: %v", name, err)
		}
	}
	for name, b := range bad {
		var got DurationStats
		if err := got.GobDecode(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	var w Welford
	if err := w.GobDecode(append(welford, 0)); err == nil {
		t.Error("welford with a trailing byte accepted")
	}
	var s Sample
	if err := s.GobDecode(append(sample, 0)); err == nil {
		t.Error("sample with a trailing byte accepted")
	}
}

// rawBits is x in the raw layouts' value form, for sampleBytes.
func rawBits(x float64) uint64 { return bits.ReverseBytes64(math.Float64bits(x)) }

// sampleBytes hand-builds a Sample encoding (capacity 0, seen = count)
// with the given layout byte and uvarint-coded values, valid or not.
func sampleBytes(layout byte, values ...uint64) []byte {
	b := []byte{fmtSample, layout}
	b = binary.AppendVarint(b, 0)
	b = binary.AppendUvarint(b, uint64(len(values)))
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.AppendUvarint(b, uint64(len(values)))
	for _, v := range values {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestSampleLayoutBoundary: the encoder writes the delta layout exactly
// when the sample is sorted and every value is a non-negative integer
// below 2^53 with the sign bit clear, and every layout round-trips the
// float64 bits and re-encodes byte for byte.
func TestSampleLayoutBoundary(t *testing.T) {
	for _, tc := range []struct {
		name   string
		values []float64
		sorted bool
		layout byte
	}{
		{"zero", []float64{0}, true, layoutDelta},
		{"2^53-1", []float64{1<<53 - 1}, true, layoutDelta},
		{"integers with repeats", []float64{0, 7, 7, 1e9}, true, layoutDelta},
		{"empty sorted", nil, true, layoutDelta},
		{"2^53", []float64{1 << 53}, true, layoutSorted},
		{"-0", []float64{math.Copysign(0, -1)}, true, layoutSorted},
		{"0.5", []float64{0.5}, true, layoutSorted},
		{"-1", []float64{-1, 2}, true, layoutSorted},
		{"NaN", []float64{math.NaN(), 1}, true, layoutSorted},
		{"+Inf", []float64{1, math.Inf(1)}, true, layoutSorted},
		{"descending pair", []float64{2, 1}, false, layoutUnsorted},
		{"unsorted integers", []float64{1, 2}, false, layoutUnsorted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := Sample{values: tc.values, sorted: tc.sorted}
			b, err := in.GobEncode()
			if err != nil {
				t.Fatal(err)
			}
			if b[1] != tc.layout {
				t.Fatalf("layout %d, want %d", b[1], tc.layout)
			}
			var got Sample
			if err := got.GobDecode(b); err != nil {
				t.Fatal(err)
			}
			if got.sorted != tc.sorted || len(got.values) != len(tc.values) {
				t.Fatalf("decoded sorted=%v with %d values, want %v and %d", got.sorted, len(got.values), tc.sorted, len(tc.values))
			}
			for i, v := range got.values {
				if math.Float64bits(v) != math.Float64bits(tc.values[i]) {
					t.Fatalf("value %d: bits %#x, want %#x", i, math.Float64bits(v), math.Float64bits(tc.values[i]))
				}
			}
			again, _ := got.GobEncode()
			if !bytes.Equal(again, b) {
				t.Fatalf("re-encodes as %x, want %x", again, b)
			}
		})
	}
}

// patch returns a copy of b with b[i] set to v.
func patch(b []byte, i int, v byte) []byte {
	out := append([]byte(nil), b...)
	out[i] = v
	return out
}

// TestGobBitPatternsExact: values whose bit patterns matter — signed
// zeros, NaN payloads, infinities, subnormals — round-trip bit for bit.
func TestGobBitPatternsExact(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000abc), math.SmallestNonzeroFloat64,
		math.MaxFloat64, -1e-300, 3e7}
	var s Sample
	for _, v := range vals {
		s.Add(v)
	}
	b, err := s.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var got Sample
	if err := got.GobDecode(b); err != nil {
		t.Fatal(err)
	}
	for i, v := range got.values {
		if math.Float64bits(v) != math.Float64bits(vals[i]) {
			t.Fatalf("value %d: bits %#x, want %#x", i, math.Float64bits(v), math.Float64bits(vals[i]))
		}
	}
}

// FuzzStatsGobDecode feeds arbitrary bytes to all three decoders: none
// may panic, and every accepted input must re-encode byte-identically
// (the decoders accept only canonical encodings). The nested-gob seeds
// of the previous format are asserted rejected up front, so the check
// runs under plain go test too.
func FuzzStatsGobDecode(f *testing.F) {
	for _, seed := range []string{nestedGobWelford, nestedGobDurationStats} {
		b := mustHex(f, seed)
		for name, rt := range reencode {
			if _, err := rt(b); err == nil {
				f.Fatalf("%s accepted a nested-gob encoding", name)
			}
		}
		f.Add(b)
	}
	rng := rand.New(rand.NewSource(4))
	d := NewDurationStats(16)
	for i := 0; i < 40; i++ {
		d.Add(time.Duration(rng.Int63n(int64(60 * time.Millisecond))))
	}
	d.Quantile(0.5) // sorted integral sample: the delta layout
	frac := NewSample(0)
	for i := 0; i < 8; i++ {
		frac.Add(rng.Float64() * 1e6)
	}
	frac.Quantile(0.5) // sorted non-integral sample: the sorted raw layout
	for _, v := range []interface{ GobEncode() ([]byte, error) }{d.w, d.s, *d, *frac, Welford{}, Sample{}, DurationStats{}} {
		b, err := v.GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, want := range []struct {
		s      Sample
		layout byte
	}{{d.s, layoutDelta}, {*frac, layoutSorted}} {
		if b, _ := want.s.GobEncode(); b[1] != want.layout {
			f.Fatalf("seed layout %d, want %d", b[1], want.layout)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, rt := range reencode {
			// Decoders reject by error; a panic fails the fuzz run.
			again, err := rt(data)
			if err == nil && !bytes.Equal(again, data) {
				t.Fatalf("%s: accepted %x but re-encodes as %x", name, data, again)
			}
		}
	})
}

// delaySample returns a sample of n integral nanosecond delays below
// 40 ms, sorted when sorted is set: the shape of a cached delay sample.
func delaySample(n int, sorted bool) *DurationStats {
	rng := rand.New(rand.NewSource(5))
	d := NewDurationStats(0)
	for i := 0; i < n; i++ {
		d.Add(time.Duration(rng.Int63n(int64(40 * time.Millisecond))))
	}
	if sorted {
		d.Quantile(0.99)
	}
	return d
}

// BenchmarkDurationStatsGobDecode prices decoding a 20,000-value delay
// sample in the sorted-integral delta layout and in the unsorted raw one.
func BenchmarkDurationStatsGobDecode(b *testing.B) {
	for _, bc := range []struct {
		name   string
		sorted bool
	}{{"delta", true}, {"raw", false}} {
		b.Run(bc.name, func(b *testing.B) {
			data, err := delaySample(20000, bc.sorted).GobEncode()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			var got DurationStats
			for b.Loop() {
				if err := got.GobDecode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
