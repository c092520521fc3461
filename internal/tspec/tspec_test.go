package tspec

import (
	"errors"
	"math"
	"testing"
	"time"
)

func validSpec() TSpec {
	return TSpec{
		PeakRate:        16000,
		TokenRate:       8800,
		BucketSize:      352,
		MinPolicedUnit:  144,
		MaxTransferUnit: 176,
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*TSpec)
		wantErr error
	}{
		{"valid", func(*TSpec) {}, nil},
		{"zero token rate", func(s *TSpec) { s.TokenRate = 0 }, ErrNonPositiveRate},
		{"negative peak", func(s *TSpec) { s.PeakRate = -1 }, ErrNonPositiveRate},
		{"peak below token", func(s *TSpec) { s.PeakRate = s.TokenRate / 2 }, ErrPeakBelowToken},
		{"bucket below MTU", func(s *TSpec) { s.BucketSize = 100 }, ErrBucketTooSmall},
		{"zero m", func(s *TSpec) { s.MinPolicedUnit = 0 }, ErrBadUnits},
		{"m above M", func(s *TSpec) { s.MinPolicedUnit = 200 }, ErrBadUnits},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := validSpec()
			tt.mutate(&s)
			err := s.Validate()
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestCBRPaperSpec(t *testing.T) {
	// Paper §4.1: GS sources send one uniformly distributed packet of
	// 144..176 bytes every 20 ms: p = r = 8.8 kB/s, b = M = 176, m = 144.
	s := CBR(20*time.Millisecond, 144, 176)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := s.TokenRate, 8800.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("TokenRate = %v, want %v", got, want)
	}
	if s.PeakRate != s.TokenRate {
		t.Fatalf("CBR peak %v != token %v", s.PeakRate, s.TokenRate)
	}
	if s.BucketSize != 176 || s.MaxTransferUnit != 176 || s.MinPolicedUnit != 144 {
		t.Fatalf("unexpected CBR spec: %v", s)
	}
}

func TestArrivalBound(t *testing.T) {
	s := validSpec()
	if got := s.ArrivalBound(0); got != 176 {
		t.Fatalf("ArrivalBound(0) = %v, want M", got)
	}
	if got := s.ArrivalBound(-time.Second); got != 176 {
		t.Fatalf("ArrivalBound(<0) = %v, want M", got)
	}
	// At small t the peak branch dominates: M + p*t.
	small := 10 * time.Millisecond
	wantPeak := 176 + 16000*small.Seconds()
	if got := s.ArrivalBound(small); math.Abs(got-wantPeak) > 1e-6 {
		t.Fatalf("ArrivalBound(%v) = %v, want peak branch %v", small, got, wantPeak)
	}
	// At large t the sustained branch dominates: b + r*t.
	large := 10 * time.Second
	wantSustained := 352 + 8800*large.Seconds()
	if got := s.ArrivalBound(large); math.Abs(got-wantSustained) > 1e-6 {
		t.Fatalf("ArrivalBound(%v) = %v, want sustained branch %v", large, got, wantSustained)
	}
}

func TestBusyPeriod(t *testing.T) {
	s := validSpec()
	// M + p*t = b + r*t  =>  t = (b-M)/(p-r) = (352-176)/(16000-8800).
	sec := (352.0 - 176.0) / (16000.0 - 8800.0)
	want := time.Duration(sec * float64(time.Second))
	if got := s.BusyPeriod(); got != want {
		t.Fatalf("BusyPeriod() = %v, want %v", got, want)
	}
	cbr := CBR(20*time.Millisecond, 144, 176)
	if got := cbr.BusyPeriod(); got != 0 {
		t.Fatalf("CBR BusyPeriod() = %v, want 0", got)
	}
}
