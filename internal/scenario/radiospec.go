package scenario

import (
	"fmt"

	"bluegs/internal/radio"
)

// Radio model kinds (RadioSpec.Kind).
const (
	RadioIdeal = "ideal"
	RadioBER   = "ber"
)

// RadioSpec names a radio channel model declaratively: a kind plus its
// parameter. Unlike a live radio.Model instance it is pure data — it
// serializes, fingerprints, and constructs a fresh model for every run.
// The zero value is the ideal channel.
type RadioSpec struct {
	// Kind selects the model: "" or "ideal", "ber".
	Kind string `json:"kind,omitempty"`
	// BER is the bit error rate of the independent bit-error channel.
	BER float64 `json:"ber,omitempty"`
}

// BERRadio returns an independent bit-error channel spec.
func BERRadio(ber float64) RadioSpec { return RadioSpec{Kind: RadioBER, BER: ber} }

// IsIdeal reports whether the spec names the lossless default.
func (r RadioSpec) IsIdeal() bool { return r.Kind == "" || r.Kind == RadioIdeal }

// Model constructs a fresh radio model instance for one run.
func (r RadioSpec) Model() (radio.Model, error) {
	switch r.Kind {
	case "", RadioIdeal:
		return radio.Ideal{}, nil
	case RadioBER:
		return radio.BER{BitErrorRate: r.BER}, nil
	default:
		return nil, fmt.Errorf("%w: unknown radio kind %q", ErrBadSpec, r.Kind)
	}
}
