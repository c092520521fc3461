// Package radio models the Bluetooth radio channel. The paper's evaluation
// assumes an ideal channel (§3: "we restrict ourselves to an ideal radio
// environment where no transmission errors occur"); the lossy models here
// exercise the paper's future-work direction, in which the bandwidth saved
// by the variable-interval poller absorbs retransmissions.
package radio

import (
	"math"
	"math/rand"

	"bluegs/internal/baseband"
)

// Model decides the fate of individual baseband packets on air. Models may
// be stateful; all randomness is drawn from the supplied generator so runs
// remain reproducible.
type Model interface {
	// Deliver reports whether a packet of the given type is received
	// intact.
	Deliver(rng *rand.Rand, t baseband.PacketType) bool
	// Name identifies the model in reports.
	Name() string
}

// Ideal is the paper's default: every packet is delivered. The zero value
// is ready to use.
type Ideal struct{}

var _ Model = Ideal{}

// Deliver implements Model.
func (Ideal) Deliver(*rand.Rand, baseband.PacketType) bool { return true }

// Name implements Model.
func (Ideal) Name() string { return "ideal" }

// BER is an independent bit-error channel: a packet survives with
// probability (1-ber)^AirBits. FEC-protected packet types are given a
// simple coding-gain approximation: their effective bit error rate is
// the channel's divided by fecGain.
type BER struct {
	// BitErrorRate is the per-bit error probability on air.
	BitErrorRate float64
}

// fecGain divides the bit error rate for FEC-protected packet types.
const fecGain = 10

var _ Model = BER{}

// Deliver implements Model.
func (m BER) Deliver(rng *rand.Rand, t baseband.PacketType) bool {
	if m.BitErrorRate <= 0 {
		return true
	}
	ber := m.BitErrorRate
	if t.HasFEC() {
		ber /= fecGain
	}
	if ber >= 1 {
		return false
	}
	pSurvive := math.Pow(1-ber, float64(t.AirBits()))
	return rng.Float64() < pSurvive
}

// Name implements Model.
func (BER) Name() string { return "ber" }
