// Package poller implements best-effort intra-piconet polling disciplines:
// the related-work baselines the paper positions itself against (round
// robin, exhaustive round robin, the Fair Exhaustive Poller, the Efficient
// Double-Cycle poller, demand-based polling, and head-of-line priority
// polling) and the Predictive Fair Poller (PFP) the paper builds on.
//
// A Poller picks which slave's best-effort channel the master should poll
// next. It sees only master-side knowledge: its own downlink backlog and the
// outcomes of past polls (bytes carried, the slave's more-data flag). The
// Guaranteed Service scheduler in internal/core consults a Poller for the
// capacity left over after the planned GS polls.
package poller

import (
	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// View is the master-side knowledge a poller may consult when deciding.
// Pollers call it once per slave per decision, so an implementation
// answers from state it already holds, without a map lookup or a search.
type View interface {
	// Slaves lists the pollable slaves in ascending order.
	Slaves() []piconet.SlaveID
	// HasDownBacklog reports whether the master holds a best-effort
	// packet for the slave's downlink that has arrived by now.
	HasDownBacklog(slave piconet.SlaveID) bool
}

// Outcome is the poller-relevant result of a best-effort poll.
type Outcome struct {
	// Slave is the polled slave.
	Slave piconet.SlaveID
	// End is when the exchange finished.
	End sim.Time
	// DownBytes and UpBytes are the payload bytes moved in each
	// direction (zero for POLL/NULL legs).
	DownBytes, UpBytes int
	// Slots is the air time of the exchange in slots.
	Slots int
	// UpMoreData is the slave's more-data flag.
	UpMoreData bool
}

// Carried reports whether the exchange moved any payload.
func (o Outcome) Carried() bool { return o.DownBytes > 0 || o.UpBytes > 0 }

// Poller is a best-effort polling discipline.
type Poller interface {
	// Name identifies the discipline in reports.
	Name() string
	// Next picks the slave to poll at now; ok is false when the poller
	// has no slave to poll (no slaves registered).
	Next(now sim.Time, v View) (slave piconet.SlaveID, ok bool)
	// Observe feeds back the outcome of an executed best-effort poll.
	Observe(o Outcome)
}

// nextInRing returns the element after the given slave in the ring of
// slaves, or the first slave when absent.
func nextInRing(slaves []piconet.SlaveID, after piconet.SlaveID) piconet.SlaveID {
	if len(slaves) == 0 {
		return 0
	}
	for i, s := range slaves {
		if s == after {
			return slaves[(i+1)%len(slaves)]
		}
	}
	return slaves[0]
}
