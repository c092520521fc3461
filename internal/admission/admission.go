// Package admission implements the Guaranteed Service admission control of
// Ait Yaiz & Heijenk (ICDCSW'03) §3.1: the derivation of per-flow polling
// parameters (minimum poll efficiency eta_min, poll interval t_i, worst
// exchange time xi_i), the fixed-point determination of the worst-case poll
// execution lag x_i (paper Fig. 2), the feasibility condition x_i <= t_i
// (paper eq. 8/9), and the priority-reassigning admission routine that
// exploits piggybacking of oppositely-directed flow pairs (paper Fig. 3).
package admission

import (
	"errors"
	"fmt"
	"math"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/gs"
	"bluegs/internal/piconet"
	"bluegs/internal/sco"
	"bluegs/internal/segmentation"
	"bluegs/internal/tspec"
)

// Errors returned by admission control.
var (
	ErrRejected       = errors.New("admission: flow rejected")
	ErrRateBelowToken = errors.New("admission: requested rate below token rate")
	ErrBadRequest     = errors.New("admission: invalid request")
	ErrDuplicateFlow  = errors.New("admission: duplicate flow id")
	ErrUnknownFlow    = errors.New("admission: unknown flow")
)

// Request is a Guaranteed Service flow request.
type Request struct {
	// ID identifies the flow (nonzero, unique).
	ID piconet.FlowID
	// Slave is the slave endpoint.
	Slave piconet.SlaveID
	// Dir is the flow direction.
	Dir piconet.Direction
	// Spec is the token bucket traffic specification.
	Spec tspec.TSpec
	// Rate is the requested fluid service rate R in bytes/s (>= Spec.TokenRate).
	Rate float64
	// Allowed is the set of baseband packet types the flow may use.
	Allowed baseband.TypeSet
	// SuccessScale scales the controller's configured success probability
	// for this flow alone: its effective per-exchange success probability
	// becomes s·SuccessScale. Routed flows polled through a part-time
	// bridge use it to fold the bridge's residency duty cycle into the
	// hop's derating on top of the FH collision term — absence behaves,
	// statistically, like one more source of failed exchanges. Values
	// outside (0,1) mean no extra scaling.
	SuccessScale float64
}

func (r Request) validate() error {
	if r.ID == piconet.None {
		return fmt.Errorf("%w: zero flow id", ErrBadRequest)
	}
	if r.Dir != piconet.Down && r.Dir != piconet.Up {
		return fmt.Errorf("%w: bad direction", ErrBadRequest)
	}
	if err := r.Spec.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if r.Rate < r.Spec.TokenRate {
		return fmt.Errorf("%w: R=%.1f < r=%.1f", ErrRateBelowToken, r.Rate, r.Spec.TokenRate)
	}
	if _, ok := r.Allowed.LargestACL(); !ok {
		return fmt.Errorf("%w: no ACL packet types", ErrBadRequest)
	}
	return nil
}

// Params are the polling parameters derived from a request (paper §3.1).
type Params struct {
	// EtaMin is the minimum poll efficiency eta_min in bytes per poll
	// (paper eq. 4).
	EtaMin float64
	// WorstSize is the packet size achieving EtaMin.
	WorstSize int
	// MaxSegmentSlots is the largest baseband packet (in slots) any
	// segment of the flow can occupy.
	MaxSegmentSlots int
	// Interval is the poll interval t = EtaMin / R (paper eq. 5).
	Interval time.Duration
	// Exchange is the flow's worst-case poll exchange air time xi
	// (both directions).
	Exchange time.Duration
}

// Config tunes the admission computations.
type Config struct {
	// MaxExchange is the piconet-wide worst-case transmission time Xi of
	// one ongoing exchange, the initial value of every x_i (paper Fig. 2
	// step a). It must cover best-effort exchanges too, since a planned
	// GS poll may have to wait for one. Zero derives it from the GS
	// flows alone.
	MaxExchange time.Duration
	// DirectionAware, when true, uses direction-specific exchange times
	// (POLL+data for uplink-only flows, data+NULL for downlink-only)
	// instead of the paper's conservative both-directions-maximal
	// assumption.
	DirectionAware bool
	// SCOLinks lists the piconet's reserved synchronous channels. They
	// enter every flow's x_i as an implicit highest-priority stream, and
	// flows whose worst exchange cannot fit between reservations are
	// rejected. All links must share one HV type.
	SCOLinks []sco.Channel
	// SuccessProb is the effective per-exchange success probability
	// s = 1 − P(collision) under FH co-channel interference (see
	// radio.ExpectedCollisionProb). Values <= 0 or >= 1 mean the ideal
	// channel (no derating). When set, a reserved fluid rate R delivers
	// only an effective service rate R·s, so the delay bound is
	// evaluated at R·s, the exported C term grows by a retransmission
	// budget (DeratedErrorTerms), and flows whose derated rate falls
	// below their token rate are rejected — admission must then reserve
	// R >= r/s to keep the queue stable.
	SuccessProb float64
}

// successProb normalises the configured derating input: 1 (ideal) when
// unset or out of range.
func (cfg Config) successProb() float64 {
	if cfg.SuccessProb <= 0 || cfg.SuccessProb >= 1 {
		return 1
	}
	return cfg.SuccessProb
}

// successProbFor composes the piconet-wide success probability with a
// request's own SuccessScale (a bridge hop's residency duty cycle): the
// flow-effective s the bound math and rate negotiation must use.
func (cfg Config) successProbFor(r Request) float64 {
	s := cfg.successProb()
	if r.SuccessScale > 0 && r.SuccessScale < 1 {
		s *= r.SuccessScale
	}
	return s
}

// DeriveParams computes the polling parameters of a request.
func DeriveParams(req Request, cfg Config) (Params, error) {
	if err := req.validate(); err != nil {
		return Params{}, err
	}
	var p Params
	if err := p.deriveShape(req); err != nil {
		return Params{}, err
	}
	return p.atRate(req, cfg), nil
}

// deriveShape fills in the parameters that do not depend on the rate —
// EtaMin, WorstSize and MaxSegmentSlots — unless an earlier trial of the
// same request already did (MaxSegmentSlots is at least 1 once derived).
// Deriving them walks every packet size in [m, M] twice, so the planners
// derive them once per request and reuse them at every trial rate.
func (p *Params) deriveShape(req Request) error {
	if p.MaxSegmentSlots > 0 {
		return nil
	}
	eff, err := segmentation.MinPollEfficiency(req.Spec.MinPolicedUnit, req.Spec.MaxTransferUnit, req.Allowed)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	maxSeg, err := segmentation.MaxSegmentSlots(req.Spec.MinPolicedUnit, req.Spec.MaxTransferUnit, req.Allowed)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	*p = Params{EtaMin: eff.BytesPerPoll, WorstSize: eff.Size, MaxSegmentSlots: maxSeg}
	return nil
}

// atRate returns the shape p completed at the request's rate: the poll
// interval eta/R and the exchange time.
func (p Params) atRate(req Request, cfg Config) Params {
	p.Interval = time.Duration(p.EtaMin / req.Rate * float64(time.Second))
	p.Exchange = exchangeTime(p.MaxSegmentSlots, req.Dir, cfg)
	return p
}

// exchangeTime returns a flow's worst-case exchange duration. With the
// paper's conservative assumption both the master and the slave may send a
// maximal segment (piggybacking in the opposite direction); direction-aware
// mode charges only POLL or NULL for the passive leg.
func exchangeTime(maxSegSlots int, dir piconet.Direction, cfg Config) time.Duration {
	if !cfg.DirectionAware {
		return baseband.SlotsToDuration(2 * maxSegSlots)
	}
	// One data leg plus a 1-slot POLL or NULL companion leg.
	return baseband.SlotsToDuration(maxSegSlots + 1)
}

// pairExchangeTime returns the worst exchange of a piggybacked pair: both
// legs carry maximal segments.
func pairExchangeTime(downMaxSeg, upMaxSeg int) time.Duration {
	return baseband.SlotsToDuration(downMaxSeg + upMaxSeg)
}

// Stream describes one priority-ordered poll stream for the Fig. 2
// fixed-point computation: its planned poll interval t and its worst-case
// exchange time xi. A piggybacked pair forms a single stream.
type Stream struct {
	// Interval is the stream's poll interval t.
	Interval time.Duration
	// Exchange is the stream's worst exchange air time xi.
	Exchange time.Duration
}

// DetermineX runs the paper's Fig. 2 algorithm: the worst-case lag x
// between a planned poll and its execution, for a stream whose
// higher-priority competitors are given. maxExchange is the piconet-wide Xi
// (an ongoing exchange cannot be interrupted). own is the stream's own poll
// interval t_i, used as the loop cutoff (paper step f): the returned x may
// exceed own, in which case the flow fails the eq. 8 feasibility test.
func DetermineX(maxExchange time.Duration, higher []Stream, own time.Duration) time.Duration {
	x := maxExchange
	for iter := 0; iter < 1000; iter++ {
		acc := maxExchange
		for _, h := range higher {
			if h.Interval <= 0 {
				continue
			}
			polls := int64((x + h.Interval - 1) / h.Interval) // ceil(x / t_j)
			acc += time.Duration(polls) * h.Exchange
		}
		if acc == x {
			return x // fixed point (step d)
		}
		x = acc
		if x > own {
			return x // infeasible; stop to avoid divergence (step f)
		}
	}
	return x
}

// Feasible is the paper's eq. 8 admission condition: the worst-case lag
// must not exceed the poll interval, so a planned poll is never delayed by
// a waiting poll for the same flow.
func Feasible(x, interval time.Duration) bool { return x <= interval }

// ErrorTerms returns the error-term export of a flow (paper §3.1.3):
// C = eta_min (rate-dependent) and D = x (rate-independent).
func ErrorTerms(etaMin float64, x time.Duration) gs.ErrorTerms {
	return gs.ErrorTerms{C: etaMin, D: x}
}

// retryTailProb is the residual risk the interference retry budget leaves
// uncovered: the derated C term funds enough retransmission polls that a
// packet needs more of them only with probability < retryTailProb per
// exchange (that many consecutive independent collisions). 1e-5 is
// calibrated against the E10 scatternet study: at 8 co-located piconets
// (~10⁵ exchanges per 30s run) it keeps measured worst-case delays inside
// the derated bounds where 1e-3/1e-4 left the deepest retry tails ~1-2ms
// outside. Collisions across retries are not fully independent (the other
// piconets stay on air while they too retransmit), so the geometric model
// needs this extra headroom.
const retryTailProb = 1e-5

// RetryBudget returns the number of extra polls the derated error terms
// fund against consecutive co-channel collisions: the smallest K with
// (1 − s)^K <= retryTailProb, 0 on the ideal channel. The admission
// estimate of s is conservative (every co-located piconet assumed on
// air), so the realised tail risk is far below retryTailProb.
func RetryBudget(successProb float64) int {
	if successProb >= 1 || successProb <= 0 {
		return 0
	}
	k := math.Ceil(math.Log(retryTailProb) / math.Log(1-successProb))
	if k < 0 {
		return 0
	}
	return int(k)
}

// DeratedErrorTerms is the error-term export under co-channel
// interference. A collided exchange retransmits at the flow's next
// planned poll, one interval t = eta/R later; budgeting K = RetryBudget
// retries therefore adds K·t to the worst-case delay. The bound divides
// C by the effective rate R·s, so the addition is expressed as
// C = eta·(1 + K·s): C/(R·s) = eta/(R·s) + K·eta/R. With s = 1 this is
// exactly ErrorTerms.
func DeratedErrorTerms(etaMin float64, x time.Duration, successProb float64) gs.ErrorTerms {
	k := RetryBudget(successProb)
	return gs.ErrorTerms{C: etaMin * (1 + float64(k)*successProb), D: x}
}
