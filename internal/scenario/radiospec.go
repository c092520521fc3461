package scenario

import (
	"fmt"

	"bluegs/internal/radio"
)

// Radio model kinds (RadioSpec.Kind).
const (
	RadioIdeal          = "ideal"
	RadioBER            = "ber"
	RadioGilbertElliott = "gilbert-elliott"
)

// RadioSpec names a radio channel model declaratively: a kind plus its
// parameters. Unlike a live radio.Model instance it is pure data — it
// serializes, fingerprints, and constructs a fresh (independently seeded)
// model for every run, so stateful models like Gilbert–Elliott can never
// leak state between the runs of a sweep. The zero value is the ideal
// channel.
type RadioSpec struct {
	// Kind selects the model: "" or "ideal", "ber", "gilbert-elliott".
	Kind string `json:"kind,omitempty"`
	// BER and FECGain parameterise the independent bit-error channel
	// (FECGain zero uses the model default).
	BER     float64 `json:"ber,omitempty"`
	FECGain float64 `json:"fec_gain,omitempty"`
	// PGoodToBad/PBadToGood/GoodLoss/BadLoss parameterise the two-state
	// bursty Gilbert–Elliott channel.
	PGoodToBad float64 `json:"p_good_to_bad,omitempty"`
	PBadToGood float64 `json:"p_bad_to_good,omitempty"`
	GoodLoss   float64 `json:"good_loss,omitempty"`
	BadLoss    float64 `json:"bad_loss,omitempty"`
}

// BERRadio returns an independent bit-error channel spec.
func BERRadio(ber float64) RadioSpec { return RadioSpec{Kind: RadioBER, BER: ber} }

// GilbertElliottRadio returns a two-state bursty channel spec.
func GilbertElliottRadio(pGoodToBad, pBadToGood, goodLoss, badLoss float64) RadioSpec {
	return RadioSpec{
		Kind:       RadioGilbertElliott,
		PGoodToBad: pGoodToBad, PBadToGood: pBadToGood,
		GoodLoss: goodLoss, BadLoss: badLoss,
	}
}

// IsIdeal reports whether the spec names the lossless default.
func (r RadioSpec) IsIdeal() bool { return r.Kind == "" || r.Kind == RadioIdeal }

// Model constructs a fresh radio model instance for one run.
func (r RadioSpec) Model() (radio.Model, error) {
	switch r.Kind {
	case "", RadioIdeal:
		return radio.Ideal{}, nil
	case RadioBER:
		return radio.BER{BitErrorRate: r.BER, FECGain: r.FECGain}, nil
	case RadioGilbertElliott:
		return radio.NewGilbertElliott(r.PGoodToBad, r.PBadToGood, r.GoodLoss, r.BadLoss), nil
	default:
		return nil, fmt.Errorf("%w: unknown radio kind %q", ErrBadSpec, r.Kind)
	}
}
