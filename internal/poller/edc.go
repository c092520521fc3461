package poller

import (
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// EDC is the Efficient Double-Cycle poller of Bruno, Conti & Gregori (WMI
// 2001). Polling alternates between two cycles: the active cycle visits
// slaves believed to have traffic, and the idle cycle probes the remaining
// slaves. The idle cycle's period adapts: every fruitless probe of a slave
// doubles that slave's probe interval (up to a maximum), and any data resets
// it, so idle slaves cost exponentially fewer slots. Create with NewEDC.
type EDC struct {
	inited bool
	// interval and nextProbe hold, indexed by SlaveID (1..7), the
	// adaptive probe spacing and the next time the slave may be probed.
	interval  [baseband.MaxActiveSlaves + 1]sim.Time
	nextProbe [baseband.MaxActiveSlaves + 1]sim.Time
	// busy marks slaves in the active cycle.
	busy [baseband.MaxActiveSlaves + 1]bool
	last piconet.SlaveID

	minInterval sim.Time
	maxInterval sim.Time
}

var _ Poller = (*EDC)(nil)

// NewEDC returns an EDC poller with the given idle-cycle bounds. Non-
// positive arguments default to 2 slot pairs and 100 ms respectively.
func NewEDC(minInterval, maxInterval sim.Time) *EDC {
	if minInterval <= 0 {
		minInterval = 2 * piconet.DecisionInterval
	}
	if maxInterval <= 0 {
		maxInterval = 100 * time.Millisecond
	}
	if maxInterval < minInterval {
		maxInterval = minInterval
	}
	return &EDC{minInterval: minInterval, maxInterval: maxInterval}
}

// Name implements Poller.
func (*EDC) Name() string { return "edc" }

// Next implements Poller.
func (e *EDC) Next(now sim.Time, v View) (piconet.SlaveID, bool) {
	slaves := v.Slaves()
	if len(slaves) == 0 {
		return 0, false
	}
	if !e.inited {
		for _, s := range slaves {
			e.interval[s] = e.minInterval
			e.nextProbe[s] = 0
			e.busy[s] = true // start optimistic: everyone in the active cycle
		}
		e.inited = true
	}
	// Downlink backlog makes a slave busy immediately (master knowledge).
	for _, s := range slaves {
		if v.HasDownBacklog(s) {
			e.busy[s] = true
		}
	}
	// Active cycle: next busy slave after the last polled one.
	for i := 0; i < len(slaves); i++ {
		cand := nextInRing(slaves, e.last)
		e.last = cand
		if e.busy[cand] {
			return cand, true
		}
	}
	// Idle cycle: the due probe with the earliest deadline.
	var best piconet.SlaveID
	first := true
	for _, s := range slaves {
		if e.nextProbe[s] > now {
			continue
		}
		if first || e.nextProbe[s] < e.nextProbe[best] {
			best, first = s, false
		}
	}
	if first {
		// Nothing due: poll the slave whose probe is nearest (keeps
		// the poller work-conserving; the GS scheduler may instead
		// choose to idle).
		best = slaves[0]
		for _, s := range slaves[1:] {
			if e.nextProbe[s] < e.nextProbe[best] {
				best = s
			}
		}
	}
	return best, true
}

// Observe implements Poller.
func (e *EDC) Observe(o Outcome) {
	if !e.inited {
		return
	}
	s := o.Slave
	if o.Carried() || o.UpMoreData {
		e.busy[s] = true
		e.interval[s] = e.minInterval
		e.nextProbe[s] = o.End
		return
	}
	// Fruitless poll: demote to the idle cycle and back off.
	e.busy[s] = false
	iv := e.interval[s] * 2
	if iv > e.maxInterval {
		iv = e.maxInterval
	}
	if iv < e.minInterval {
		iv = e.minInterval
	}
	e.interval[s] = iv
	e.nextProbe[s] = o.End + iv
}
