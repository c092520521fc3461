package poller

import (
	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// Demand is a demand-based poller in the spirit of Rao, Baux & Kesidis
// (IEEE WLAN 2001): each slave accumulates credit proportional to its
// estimated demand (an exponentially weighted average of the bytes its
// polls have moved, weighting the newest poll 0.25), and the master polls
// the slave with the most credit. Heavily loaded slaves are therefore
// visited more often, while idle slaves decay toward a floor rate that
// keeps their demand estimate fresh. The zero value is ready to use.
type Demand struct {
	inited bool
	// demand (an EWMA of bytes per poll) and credit are indexed by
	// SlaveID (1..7).
	demand [baseband.MaxActiveSlaves + 1]float64
	credit [baseband.MaxActiveSlaves + 1]float64
}

var _ Poller = (*Demand)(nil)

// demandAlpha is the EWMA weight of the newest observation.
const demandAlpha = 0.25

// demandFloor keeps every slave's effective demand positive so that idle
// slaves are still polled occasionally (their credit grows slowly).
const demandFloor = 1.0

// Name implements Poller.
func (*Demand) Name() string { return "demand" }

// Next implements Poller.
func (d *Demand) Next(_ sim.Time, v View) (piconet.SlaveID, bool) {
	slaves := v.Slaves()
	if len(slaves) == 0 {
		return 0, false
	}
	if !d.inited {
		for _, s := range slaves {
			// Optimistic initial demand: one DH3 per poll.
			d.demand[s] = 183
			d.credit[s] = 0
		}
		d.inited = true
	}
	var best piconet.SlaveID
	bestCredit := 0.0
	for _, s := range slaves {
		eff := d.demand[s]
		if eff < demandFloor {
			eff = demandFloor
		}
		// Master-visible backlog boosts effective demand.
		if v.HasDownBacklog(s) {
			eff += 183
		}
		d.credit[s] += eff
		if best == 0 || d.credit[s] > bestCredit {
			best, bestCredit = s, d.credit[s]
		}
	}
	return best, true
}

// Observe implements Poller.
func (d *Demand) Observe(o Outcome) {
	if !d.inited {
		return
	}
	moved := float64(o.DownBytes + o.UpBytes)
	d.demand[o.Slave] = demandAlpha*moved + (1-demandAlpha)*d.demand[o.Slave]
	d.credit[o.Slave] = 0
}
