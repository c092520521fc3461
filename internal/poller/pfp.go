package poller

import (
	"math"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// PFP is the Predictive Fair Poller of Ait Yaiz & Heijenk (Wireless Personal
// Communications 23(1), 2002), the poller the paper's evaluation uses for
// best-effort traffic. For every slave it maintains two aspects:
//
//   - a prediction of whether the slave has data: the master knows its own
//     downlink queues and the slave's last more-data flag exactly, and
//     estimates the uplink arrival rate from poll outcomes, giving
//     P(data) = 1 - exp(-lambda * timeSinceQueueKnownEmpty);
//   - a fairness account: every slave has an equal fair share of the
//     polling resource, and the fraction of its fair share each slave has
//     received ranks the slaves.
//
// The decision rule polls the slave with the smallest received fair-share
// fraction among slaves predicted to have data, that is with P(data) at
// or above the fixed threshold 0.6; when no slave is predicted active, it
// refreshes its knowledge by probing the slave whose state is stalest.
// The exact internals of the published PFP live in a companion report;
// this realization keeps its two published aspects (prediction and
// fair-share fractions) and is validated against the properties the paper
// claims: full throughput for underloaded slaves and max-min fair division
// of leftover capacity. The zero value is ready to use.
type PFP struct {
	// state is indexed by SlaveID (1..7). counted marks the slaves
	// already given their prior and counted into slaves.
	state  [baseband.MaxActiveSlaves + 1]pfpSlave
	inited bool

	// served is the running total of servedSlots and slaves the number
	// of counted slaves, so a fair-share fraction is O(1). served adds
	// whole slots, which float64 sums exactly in any order.
	served, slaves float64
}

type pfpSlave struct {
	// lambda is the estimated uplink packet arrival rate (packets/s).
	lambda float64
	// lastPollEnd is when we last learned this slave's queue state.
	lastPollEnd sim.Time
	// everPolled reports whether lastPollEnd is meaningful.
	everPolled bool
	// moreData is the slave's last more-data flag.
	moreData bool
	// counted reports whether the slave is in the PFP's slaves count.
	counted bool
	// servedSlots accumulates the polling resource spent on the slave.
	servedSlots float64
}

var _ Poller = (*PFP)(nil)

// pfpTau is the time constant of the arrival-rate estimator.
const pfpTau = 200 * time.Millisecond

// pfpThreshold is the prediction level at or above which a slave is
// treated as having data.
const pfpThreshold = 0.6

// pfpActiveLo and pfpActiveHi bracket λ·gap (gap in nanoseconds) around
// the activity boundary x* = -ln(1-pfpThreshold)·1e9: below pfpActiveLo
// the prediction is surely under the threshold, above pfpActiveHi surely
// at or over it, and in between Next evaluates the formula. The 1e-9
// relative band absorbs the rounding of λ·gap, of x* and of 1 - exp(-x).
var pfpActiveLo, pfpActiveHi = pfpActiveBand()

func pfpActiveBand() (lo, hi float64) {
	xStar := -math.Log1p(-pfpThreshold)
	return xStar * (1 - 1e-9) * 1e9, xStar * (1 + 1e-9) * 1e9
}

// pfpGapSlots is the number of whole-slot gaps (up to 2.56 s) whose
// estimator terms Observe reads from pfpGaps instead of computing them.
const pfpGapSlots = 4096

// pfpGapTerms are the estimator terms of one sampling gap: the EWMA
// weight 1 - exp(-gap/tau) and the rate 1/gap of one packet per gap.
type pfpGapTerms struct {
	w, perSec float64
}

// pfpGaps[k] holds the terms of a gap of k slots, built by the same
// function Observe falls back to, so a table read equals the formula bit
// for bit. It is a fixed array, filled once at package init.
var pfpGaps [pfpGapSlots]pfpGapTerms

func init() {
	for k := 1; k < pfpGapSlots; k++ {
		pfpGaps[k] = gapTermsOf((sim.Time(k) * baseband.SlotDuration).Seconds())
	}
}

func gapTermsOf(dt float64) pfpGapTerms {
	return pfpGapTerms{w: 1 - math.Exp(-dt/pfpTau.Seconds()), perSec: 1 / dt}
}

// gapTerms returns the estimator terms of a positive gap. Exchanges start
// and end on one piconet's slot grid, so the gaps between them are whole
// slots and read the table; others use the formula.
func gapTerms(gap sim.Time) pfpGapTerms {
	// A division by a constant compiles to a multiply.
	if k := gap / baseband.SlotDuration; k < pfpGapSlots && k*baseband.SlotDuration == gap {
		return pfpGaps[k]
	}
	return gapTermsOf(gap.Seconds())
}

// Name implements Poller.
func (*PFP) Name() string { return "pfp" }

// slave returns the slave's state, giving it the optimistic prior of 50
// packets/s and counting it on first use.
func (p *PFP) slave(s piconet.SlaveID) *pfpSlave {
	st := &p.state[s]
	if !st.counted {
		st.counted = true
		st.lambda = 50
		p.slaves++
	}
	return st
}

// Predict returns the poller's current estimate of the probability that the
// slave has data to exchange at time now (exposed for tests and reports).
func (p *PFP) Predict(now sim.Time, v View, s piconet.SlaveID) float64 {
	st := p.slave(s)
	if v.HasDownBacklog(s) || st.moreData || !st.everPolled {
		return 1 // a never-sampled slave is assumed active so it gets polled
	}
	dt := (now - st.lastPollEnd).Seconds()
	if dt <= 0 {
		return 0
	}
	return 1 - math.Exp(-st.lambda*dt)
}

// active reports Predict(now, v, s) >= pfpThreshold without an exp
// outside the band around the boundary.
func (p *PFP) active(now sim.Time, v View, s piconet.SlaveID, st *pfpSlave) bool {
	if st.moreData || !st.everPolled || v.HasDownBacklog(s) {
		return true
	}
	gap := now - st.lastPollEnd
	if gap <= 0 {
		return false
	}
	switch x := st.lambda * float64(gap); {
	case x < pfpActiveLo:
		return false
	case x > pfpActiveHi:
		return true
	}
	return 1-math.Exp(-st.lambda*gap.Seconds()) >= pfpThreshold
}

// FairShareFraction returns the slave's served slots over its equal share
// of all served slots: below 1 means the slave has received less than its
// fair share (exposed for tests).
func (p *PFP) FairShareFraction(s piconet.SlaveID) float64 {
	return p.fraction(p.slave(s))
}

func (p *PFP) fraction(st *pfpSlave) float64 {
	if p.served == 0 || p.slaves == 0 {
		return 0
	}
	return st.servedSlots / (p.served / p.slaves)
}

// Next implements Poller.
func (p *PFP) Next(now sim.Time, v View) (piconet.SlaveID, bool) {
	slaves := v.Slaves()
	if len(slaves) == 0 {
		return 0, false
	}
	if !p.inited {
		for _, s := range slaves {
			p.slave(s)
		}
		p.inited = true
	}
	// Fairness-first among predicted-active slaves.
	var best piconet.SlaveID
	bestFrac := math.Inf(1)
	for _, s := range slaves {
		st := p.slave(s)
		if !p.active(now, v, s, st) {
			continue
		}
		if frac := p.fraction(st); frac < bestFrac {
			best, bestFrac = s, frac
		}
	}
	if best != 0 {
		return best, true
	}
	// Nobody predicted active: refresh the stalest knowledge.
	best = slaves[0]
	stalest := p.slave(best).lastPollEnd
	for _, s := range slaves[1:] {
		if end := p.slave(s).lastPollEnd; end < stalest {
			best, stalest = s, end
		}
	}
	return best, true
}

// Observe implements Poller.
func (p *PFP) Observe(o Outcome) {
	st := p.slave(o.Slave)
	if st.everPolled {
		if gap := o.End - st.lastPollEnd; gap > 0 {
			// Time-constant EWMA handles irregular sampling gaps.
			g := gapTerms(gap)
			w, obs := g.w, 0.0
			if o.UpBytes > 0 {
				obs = g.perSec
			}
			st.lambda = (1-w)*st.lambda + w*obs
			if st.lambda < 0.1 {
				st.lambda = 0.1 // keep probes alive for idle slaves
			}
		}
	}
	st.everPolled = true
	st.lastPollEnd = o.End
	st.moreData = o.UpMoreData
	st.servedSlots += float64(o.Slots)
	p.served += float64(o.Slots)
}
