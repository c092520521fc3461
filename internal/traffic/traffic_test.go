package traffic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestFixedSize: a one-point UniformSize is the BE sources' fixed size:
// it always draws that size, consumes no random draw, and clamps sizes
// below one byte to 1.
func TestFixedSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := UniformSize{Min: 176, Max: 176}
	for i := 0; i < 10; i++ {
		if got := f.Draw(rng); got != 176 {
			t.Fatalf("Draw = %d, want 176", got)
		}
	}
	if got, want := rng.Int63(), rand.New(rand.NewSource(1)).Int63(); got != want {
		t.Fatal("a fixed size consumed random draws")
	}
	lo, hi := f.Bounds()
	if lo != 176 || hi != 176 {
		t.Fatalf("Bounds = %d,%d", lo, hi)
	}
	if got := (UniformSize{}).Draw(rng); got != 1 {
		t.Fatalf("UniformSize{0, 0}.Draw = %d, want clamp to 1", got)
	}
}

func TestUniformSize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	u := UniformSize{Min: 144, Max: 176}
	seen := map[int]bool{}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := u.Draw(rng)
		if v < 144 || v > 176 {
			t.Fatalf("Draw = %d outside [144,176]", v)
		}
		seen[v] = true
		sum += float64(v)
	}
	if len(seen) != 33 {
		t.Fatalf("saw %d distinct sizes, want 33", len(seen))
	}
	if mean := sum / n; math.Abs(mean-160) > 1 {
		t.Fatalf("mean size = %v, want ~160", mean)
	}
}

func TestUniformSizeDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := UniformSize{Min: 0, Max: -5}
	lo, hi := u.Bounds()
	if lo != 1 || hi != 1 {
		t.Fatalf("Bounds = %d,%d, want clamped 1,1", lo, hi)
	}
	if got := u.Draw(rng); got != 1 {
		t.Fatalf("Draw = %d", got)
	}
}

func TestCBR(t *testing.T) {
	c := CBR{Interval: 20 * time.Millisecond}
	for i := 0; i < 5; i++ {
		if got := c.NextInterval(); got != 20*time.Millisecond {
			t.Fatalf("NextInterval = %v", got)
		}
	}
	if got := (CBR{}).NextInterval(); got <= 0 {
		t.Fatalf("zero CBR interval should clamp, got %v", got)
	}
}

func TestCBRForRatePaperSources(t *testing.T) {
	// Paper BE flows: 176-byte packets at 41.6 kbps ->
	// interval = 176*8/41600 s ~= 33.846154 ms. The exact interval is
	// 33846153.846... ns: truncation would keep 33846153 ns and push the
	// emitted rate above the requested one; rounding must pick 33846154.
	c := CBRForRate(41600, 176)
	if want := 33846154 * time.Nanosecond; c.Interval != want {
		t.Fatalf("Interval = %v, want rounded %v", c.Interval, want)
	}
	if got := CBRForRate(0, 176).Interval; got <= 0 {
		t.Fatal("degenerate rate should clamp to positive interval")
	}
}

// TestCBRForRateAchievedRate pins the achieved rate: over the paper's BE
// rates (plus awkward ones), the emitted bits/s must match the request to
// within the half-nanosecond-per-interval rounding granularity — and in
// particular must no longer systematically overshoot.
func TestCBRForRateAchievedRate(t *testing.T) {
	rates := []float64{41600, 47200, 52800, 58400, 60000, 70000, 90000, 123457}
	var bias float64
	for _, rate := range rates {
		c := CBRForRate(rate, 176)
		achieved := float64(176*8) / c.Interval.Seconds()
		// Half a nanosecond of interval error translates to at most
		// rate^2/(2*bits*1e9) bits/s of rate error.
		tol := rate * rate / (2 * 176 * 8 * 1e9)
		if diff := math.Abs(achieved - rate); diff > tol+1e-9 {
			t.Fatalf("rate %v: achieved %v (err %v, tol %v)", rate, achieved, diff, tol)
		}
		bias += achieved - rate
	}
	// Truncation erred high on every non-exact rate; rounding must not.
	if bias > 0.05*float64(len(rates)) {
		t.Fatalf("achieved rates still biased high: mean bias %v bits/s", bias/float64(len(rates)))
	}
}

func TestPropertySizeDistsRespectBounds(t *testing.T) {
	f := func(minRaw, maxRaw uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := UniformSize{Min: int(minRaw), Max: int(maxRaw)}
		lo, hi := u.Bounds()
		if lo < 1 || hi < lo {
			return false
		}
		for i := 0; i < 50; i++ {
			v := u.Draw(rng)
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(53))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
