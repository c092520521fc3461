package radio

import (
	"math"
	"math/rand"
	"testing"

	"bluegs/internal/baseband"
)

func TestIdealDeliversEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m Ideal
	for i := 0; i < 100; i++ {
		if !m.Deliver(rng, baseband.TypeDH3) {
			t.Fatal("ideal channel dropped a packet")
		}
	}
	if m.Name() != "ideal" {
		t.Fatalf("Name = %q", m.Name())
	}
}

func TestBERZeroIsLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := BER{BitErrorRate: 0}
	for i := 0; i < 100; i++ {
		if !m.Deliver(rng, baseband.TypeDH5) {
			t.Fatal("zero-BER channel dropped a packet")
		}
	}
}

func TestBEROneDropsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := BER{BitErrorRate: 1}
	for i := 0; i < 100; i++ {
		if m.Deliver(rng, baseband.TypeDH1) {
			t.Fatal("BER=1 channel delivered a packet")
		}
	}
}

func TestBERLossRateMatchesTheory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := BER{BitErrorRate: 1e-4}
	const n = 20000
	delivered := 0
	for i := 0; i < n; i++ {
		if m.Deliver(rng, baseband.TypeDH3) {
			delivered++
		}
	}
	want := math.Pow(1-1e-4, float64(baseband.TypeDH3.AirBits()))
	got := float64(delivered) / n
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("delivery rate = %v, theory %v", got, want)
	}
}

func TestBERLongerPacketsLoseMore(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := BER{BitErrorRate: 5e-4}
	const n = 20000
	count := func(tp baseband.PacketType) int {
		ok := 0
		for i := 0; i < n; i++ {
			if m.Deliver(rng, tp) {
				ok++
			}
		}
		return ok
	}
	dh1 := count(baseband.TypeDH1)
	dh5 := count(baseband.TypeDH5)
	if dh5 >= dh1 {
		t.Fatalf("DH5 delivered %d >= DH1 %d; longer packets should fail more", dh5, dh1)
	}
}

func TestBERFECGain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := BER{BitErrorRate: 1e-3}
	const n = 20000
	dm3, dh3 := 0, 0
	for i := 0; i < n; i++ {
		if m.Deliver(rng, baseband.TypeDM3) {
			dm3++
		}
		if m.Deliver(rng, baseband.TypeDH3) {
			dh3++
		}
	}
	if dm3 <= dh3 {
		t.Fatalf("FEC-protected DM3 delivered %d <= DH3 %d", dm3, dh3)
	}
}
