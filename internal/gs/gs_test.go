package gs

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"bluegs/internal/tspec"
)

// paperSpec is the TSpec of each GS flow in the paper's §4.1 evaluation.
func paperSpec() tspec.TSpec {
	return tspec.CBR(20*time.Millisecond, 144, 176)
}

// paperTerms is the per-flow error-term export of the paper's poller for a
// flow with x_i as given: C = eta_min = 144 bytes, D = x_i.
func paperTerms(x time.Duration) ErrorTerms {
	return ErrorTerms{C: 144, D: x}
}

func TestDelayBoundHighRateRegime(t *testing.T) {
	// R >= p: bound = (M + C)/R + D. Paper numbers: M=176, C=144,
	// x_4 = 11.25 ms, R = 12.8 kB/s -> 320/12800 s + 11.25 ms = 36.25 ms.
	spec := paperSpec()
	terms := paperTerms(11250 * time.Microsecond)
	got, err := DelayBound(spec, 12800, terms)
	if err != nil {
		t.Fatalf("DelayBound: %v", err)
	}
	want := 36250 * time.Microsecond
	if got != want {
		t.Fatalf("DelayBound = %v, want %v", got, want)
	}
}

func TestDelayBoundAtTokenRate(t *testing.T) {
	// R = r = 8.8 kB/s: bound = 320/8800 s + 11.25 ms ~= 47.614 ms. This
	// is the paper's "never exceeded" bound for the lowest-priority flow.
	spec := paperSpec()
	terms := paperTerms(11250 * time.Microsecond)
	got, err := MaxDelayBound(spec, terms)
	if err != nil {
		t.Fatalf("MaxDelayBound: %v", err)
	}
	fluid := 320.0 / 8800.0
	want := time.Duration(fluid*float64(time.Second)) + 11250*time.Microsecond
	if diff := got - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("MaxDelayBound = %v, want %v", got, want)
	}
	if got < 47*time.Millisecond || got > 48*time.Millisecond {
		t.Fatalf("MaxDelayBound = %v, want ~47.6ms per the paper", got)
	}
}

func TestDelayBoundPeakRegime(t *testing.T) {
	// p > R >= r engages the burst term. Constructed example:
	// p=2000, r=1000, b=3000, M=1000, C=0, D=0, R=1500:
	// (b-M)/R*(p-R)/(p-r) + M/R = (2000/1500)*(500/1000) + 1000/1500
	//   = 0.6667 + 0.6667 = 1.3333 s.
	spec := tspec.TSpec{PeakRate: 2000, TokenRate: 1000, BucketSize: 3000, MinPolicedUnit: 1, MaxTransferUnit: 1000}
	got, err := DelayBound(spec, 1500, ErrorTerms{})
	if err != nil {
		t.Fatalf("DelayBound: %v", err)
	}
	twoThirdsTwice := 4.0 / 3.0
	want := time.Duration(twoThirdsTwice * float64(time.Second))
	if diff := got - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("DelayBound = %v, want %v", got, want)
	}
}

func TestDelayBoundContinuousAtPeak(t *testing.T) {
	// The two regimes must agree at R = p.
	spec := tspec.TSpec{PeakRate: 2000, TokenRate: 1000, BucketSize: 3000, MinPolicedUnit: 1, MaxTransferUnit: 1000}
	atPeak, err := DelayBound(spec, spec.PeakRate, ErrorTerms{C: 50, D: time.Millisecond})
	if err != nil {
		t.Fatalf("DelayBound: %v", err)
	}
	justBelow, err := DelayBound(spec, spec.PeakRate-0.001, ErrorTerms{C: 50, D: time.Millisecond})
	if err != nil {
		t.Fatalf("DelayBound: %v", err)
	}
	if diff := justBelow - atPeak; diff < 0 || diff > 10*time.Microsecond {
		t.Fatalf("bound discontinuous at R=p: %v vs %v", justBelow, atPeak)
	}
}

func TestDelayBoundErrors(t *testing.T) {
	spec := paperSpec()
	if _, err := DelayBound(spec, spec.TokenRate-1, ErrorTerms{}); !errors.Is(err, ErrRateBelowTokenRate) {
		t.Fatalf("DelayBound below r: err = %v", err)
	}
	bad := spec
	bad.TokenRate = -1
	if _, err := DelayBound(bad, 1000, ErrorTerms{}); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("DelayBound invalid spec: err = %v", err)
	}
}

func TestRequiredRatePaperNumbers(t *testing.T) {
	// Inverse of TestDelayBoundHighRateRegime: a 36.25 ms target with
	// x=11.25 ms needs exactly R = 12.8 kB/s.
	spec := paperSpec()
	terms := paperTerms(11250 * time.Microsecond)
	got, err := RequiredRate(spec, 36250*time.Microsecond, terms)
	if err != nil {
		t.Fatalf("RequiredRate: %v", err)
	}
	if math.Abs(got-12800) > 0.01 {
		t.Fatalf("RequiredRate = %v, want 12800", got)
	}
}

func TestRequiredRateLooseTargetReturnsTokenRate(t *testing.T) {
	spec := paperSpec()
	terms := paperTerms(11250 * time.Microsecond)
	got, err := RequiredRate(spec, time.Second, terms)
	if err != nil {
		t.Fatalf("RequiredRate: %v", err)
	}
	if got != spec.TokenRate {
		t.Fatalf("RequiredRate = %v, want token rate %v", got, spec.TokenRate)
	}
}

func TestRequiredRateUnachievable(t *testing.T) {
	spec := paperSpec()
	terms := paperTerms(11250 * time.Microsecond)
	if _, err := RequiredRate(spec, 11250*time.Microsecond, terms); !errors.Is(err, ErrUnachievableDelay) {
		t.Fatalf("target == Dtot should be unachievable, err = %v", err)
	}
	if _, err := RequiredRate(spec, time.Millisecond, terms); !errors.Is(err, ErrUnachievableDelay) {
		t.Fatalf("target < Dtot should be unachievable, err = %v", err)
	}
}

func TestRequiredRateMidRegime(t *testing.T) {
	// Force a solution with r < R < p and verify round-tripping.
	spec := tspec.TSpec{PeakRate: 20000, TokenRate: 1000, BucketSize: 5000, MinPolicedUnit: 1, MaxTransferUnit: 500}
	terms := ErrorTerms{C: 100, D: 2 * time.Millisecond}
	target := 2 * time.Second
	rate, err := RequiredRate(spec, target, terms)
	if err != nil {
		t.Fatalf("RequiredRate: %v", err)
	}
	if rate < spec.TokenRate || rate > spec.PeakRate {
		t.Fatalf("RequiredRate = %v outside [r,p]", rate)
	}
	bound, err := DelayBound(spec, rate, terms)
	if err != nil {
		t.Fatalf("DelayBound: %v", err)
	}
	if bound > target+time.Microsecond {
		t.Fatalf("bound %v exceeds target %v at computed rate", bound, target)
	}
}

// TestPropertyDelayBoundMonotoneInRate: a higher reservation never worsens
// the bound.
func TestPropertyDelayBoundMonotoneInRate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng)
		terms := ErrorTerms{C: float64(rng.Intn(500)), D: time.Duration(rng.Intn(20)) * time.Millisecond}
		r1 := spec.TokenRate * (1 + rng.Float64()*3)
		r2 := r1 * (1 + rng.Float64()*2)
		d1, err1 := DelayBound(spec, r1, terms)
		d2, err2 := DelayBound(spec, r2, terms)
		if err1 != nil || err2 != nil {
			return false
		}
		return d2 <= d1+time.Microsecond
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRequiredRateAchievesTarget: the rate returned by RequiredRate
// always yields a bound within the target (round trip through DelayBound).
func TestPropertyRequiredRateAchievesTarget(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng)
		terms := ErrorTerms{C: float64(rng.Intn(500)), D: time.Duration(rng.Intn(10)) * time.Millisecond}
		minBound, err := DelayBound(spec, spec.PeakRate*10, terms)
		if err != nil {
			return false
		}
		target := minBound + time.Duration(1+rng.Intn(100))*time.Millisecond
		rate, err := RequiredRate(spec, target, terms)
		if err != nil {
			return false
		}
		if rate < spec.TokenRate {
			return false
		}
		bound, err := DelayBound(spec, rate, terms)
		if err != nil {
			return false
		}
		return bound <= target+10*time.Microsecond
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRequiredRateIsMinimal: a slightly smaller rate (when still
// legal) violates the target, i.e. the returned rate is not wastefully high.
func TestPropertyRequiredRateIsMinimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng)
		terms := ErrorTerms{C: float64(rng.Intn(200)), D: time.Duration(rng.Intn(5)) * time.Millisecond}
		minBound, err := DelayBound(spec, spec.PeakRate*10, terms)
		if err != nil {
			return false
		}
		target := minBound + time.Duration(1+rng.Intn(50))*time.Millisecond
		rate, err := RequiredRate(spec, target, terms)
		if err != nil {
			return false
		}
		if rate <= spec.TokenRate {
			return true // already at the legal minimum; nothing to check
		}
		smaller := rate * 0.98
		if smaller < spec.TokenRate {
			return true
		}
		bound, err := DelayBound(spec, smaller, terms)
		if err != nil {
			return false
		}
		return bound > target-50*time.Microsecond
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(29))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func randomSpec(rng *rand.Rand) tspec.TSpec {
	r := float64(1000 + rng.Intn(20000))
	p := r * (1 + rng.Float64()*4)
	mtu := 100 + rng.Intn(1000)
	b := float64(mtu) * (1 + rng.Float64()*5)
	return tspec.TSpec{
		PeakRate:        p,
		TokenRate:       r,
		BucketSize:      b,
		MinPolicedUnit:  1 + rng.Intn(mtu),
		MaxTransferUnit: mtu,
	}
}

func BenchmarkDelayBound(b *testing.B) {
	spec := paperSpec()
	terms := paperTerms(11250 * time.Microsecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DelayBound(spec, 12800, terms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRequiredRate(b *testing.B) {
	spec := paperSpec()
	terms := paperTerms(11250 * time.Microsecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RequiredRate(spec, 40*time.Millisecond, terms); err != nil {
			b.Fatal(err)
		}
	}
}
