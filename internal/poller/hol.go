package poller

import (
	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// HOL is a head-of-line priority poller in the spirit of Kalia, Bansal &
// Shorey (MoMuC '99): among the slaves believed to have traffic the one
// with the highest priority is polled, and a slave's priority is fixed by
// its id, the lowest id first. Believed-active means a master-visible
// downlink backlog, a set more-data flag, or a recent data-carrying poll.
// Slaves believed idle are probed in round robin so their state stays
// fresh. The zero value is ready to use.
type HOL struct {
	// believed is indexed by SlaveID (1..7).
	believed [baseband.MaxActiveSlaves + 1]bool
	inited   bool
	probeRR  piconet.SlaveID
}

var _ Poller = (*HOL)(nil)

// Name implements Poller.
func (*HOL) Name() string { return "hol-priority" }

// Next implements Poller.
func (h *HOL) Next(_ sim.Time, v View) (piconet.SlaveID, bool) {
	slaves := v.Slaves()
	if len(slaves) == 0 {
		return 0, false
	}
	if !h.inited {
		for _, s := range slaves {
			h.believed[s] = true // optimistic start
		}
		h.inited = true
	}
	for _, s := range slaves {
		if h.believed[s] || v.HasDownBacklog(s) {
			return s, true
		}
	}
	// Everyone believed idle: probe round-robin.
	h.probeRR = nextInRing(slaves, h.probeRR)
	return h.probeRR, true
}

// Observe implements Poller.
func (h *HOL) Observe(o Outcome) {
	if !h.inited {
		return
	}
	h.believed[o.Slave] = o.Carried() || o.UpMoreData
}
