package poller

import (
	"math"
	"time"

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
//   - a fairness account: each slave has a fair share (weight) of the
//     polling resource, and the fraction of its fair share each slave has
//     received ranks the slaves.
//
// The decision rule polls the slave with the smallest received fair-share
// fraction among slaves predicted to have data; when no slave is predicted
// active, it refreshes its knowledge by probing the slave whose state is
// stalest. The exact internals of the published PFP live in a companion
// report; this realization keeps its two published aspects (prediction and
// fair-share fractions) and is validated against the properties the paper
// claims: full throughput for underloaded slaves and max-min fair division
// of leftover capacity. Create with NewPFP.
type PFP struct {
	weights map[piconet.SlaveID]float64
	state   map[piconet.SlaveID]*pfpSlave
	inited  bool
	pending piconet.SlaveID

	// served and weightSum are the running totals of servedSlots and
	// weight over every slave in state, so a fair-share fraction is O(1).
	// weightSum is summed in slave-creation order; served adds whole
	// slots, which float64 sums exactly in any order.
	served, weightSum float64

	// activeThreshold is the prediction level above which a slave is
	// treated as having data.
	activeThreshold float64
	// tau is the time constant of the arrival-rate estimator.
	tau sim.Time
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
	// servedSlots accumulates the polling resource spent on the slave.
	servedSlots float64
	// weight is the slave's fair share.
	weight float64
}

var _ Poller = (*PFP)(nil)

// PFPOption configures a PFP poller.
type PFPOption func(*PFP)

// WithActiveThreshold sets the prediction level above which a slave is
// treated as having data (default 0.6). Higher values poll idle-looking
// slaves later: fewer wasted probe slots at the cost of slightly higher
// best-effort delay. Values outside (0, 1) are ignored.
func WithActiveThreshold(p float64) PFPOption {
	return func(pfp *PFP) {
		if p > 0 && p < 1 {
			pfp.activeThreshold = p
		}
	}
}

// NewPFP returns a Predictive Fair Poller. weights assigns each slave's
// fair share; nil or missing entries default to 1 (equal shares).
func NewPFP(weights map[piconet.SlaveID]float64, opts ...PFPOption) *PFP {
	w := make(map[piconet.SlaveID]float64, len(weights))
	for k, v := range weights {
		if v > 0 {
			w[k] = v
		}
	}
	pfp := &PFP{
		weights:         w,
		state:           make(map[piconet.SlaveID]*pfpSlave),
		activeThreshold: 0.6,
		tau:             200 * time.Millisecond, // rate-estimator time constant
	}
	for _, opt := range opts {
		opt(pfp)
	}
	return pfp
}

// Name implements Poller.
func (*PFP) Name() string { return "pfp" }

func (p *PFP) weight(s piconet.SlaveID) float64 {
	if w, ok := p.weights[s]; ok {
		return w
	}
	return 1
}

func (p *PFP) slave(s piconet.SlaveID) *pfpSlave {
	st, ok := p.state[s]
	if !ok {
		st = &pfpSlave{lambda: 50, weight: p.weight(s)} // optimistic prior: 50 packets/s
		p.state[s] = st
		p.weightSum += st.weight
	}
	return st
}

// Predict returns the poller's current estimate of the probability that the
// slave has data to exchange at time now (exposed for tests and reports).
func (p *PFP) Predict(now sim.Time, v View, s piconet.SlaveID) float64 {
	return p.predict(now, v, s, p.slave(s))
}

func (p *PFP) predict(now sim.Time, v View, s piconet.SlaveID, st *pfpSlave) float64 {
	if v.DownBacklog(s) > 0 {
		return 1
	}
	if st.moreData {
		return 1
	}
	if !st.everPolled {
		return 1 // never sampled: assume active so it gets polled
	}
	dt := (now - st.lastPollEnd).Seconds()
	if dt <= 0 {
		return 0
	}
	return 1 - math.Exp(-st.lambda*dt)
}

// FairShareFraction returns served/(weight-normalised total): below 1 means
// the slave has received less than its fair share (exposed for tests).
func (p *PFP) FairShareFraction(s piconet.SlaveID) float64 {
	return p.fraction(p.slave(s))
}

func (p *PFP) fraction(st *pfpSlave) float64 {
	if p.served == 0 || p.weightSum == 0 {
		return 0
	}
	fairShare := p.served * st.weight / p.weightSum
	if fairShare == 0 {
		return math.Inf(1)
	}
	return st.servedSlots / fairShare
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
		if p.predict(now, v, s, st) < p.activeThreshold {
			continue
		}
		if frac := p.fraction(st); frac < bestFrac {
			best, bestFrac = s, frac
		}
	}
	if best != 0 {
		p.pending = best
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
	p.pending = best
	return best, true
}

// Observe implements Poller.
func (p *PFP) Observe(o Outcome) {
	st := p.slave(o.Slave)
	carried := 0.0
	if o.UpBytes > 0 {
		carried = 1
	}
	if st.everPolled {
		dt := (o.End - st.lastPollEnd).Seconds()
		if dt > 0 {
			// Time-constant EWMA handles irregular sampling gaps.
			w := 1 - math.Exp(-dt/p.tau.Seconds())
			obs := carried / dt
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
