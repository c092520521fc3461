package poller

import (
	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// HOL is a head-of-line priority poller in the spirit of Kalia, Bansal &
// Shorey (MoMuC '99): slaves are assigned static priorities, and among the
// slaves believed to have traffic the highest-priority one is polled.
// Believed-active means a master-visible downlink backlog, a set more-data
// flag, or a recent data-carrying poll. Slaves believed idle are probed in
// low-priority round robin so their state stays fresh. Create with NewHOL.
type HOL struct {
	// priority and believed are indexed by SlaveID (1..7). A lower
	// priority value is more urgent.
	priority [baseband.MaxActiveSlaves + 1]int
	believed [baseband.MaxActiveSlaves + 1]bool
	inited   bool
	probeRR  piconet.SlaveID
}

var _ Poller = (*HOL)(nil)

// NewHOL returns a head-of-line priority poller. priorities maps slaves to
// priority values (lower is more urgent); slaves absent from the map share
// the lowest priority, so nil means all-equal, which degenerates to
// activity-gated round robin.
func NewHOL(priorities map[piconet.SlaveID]int) *HOL {
	h := &HOL{}
	for s := range h.priority {
		p, ok := priorities[piconet.SlaveID(s)]
		if !ok {
			p = int(^uint(0) >> 1) // lowest priority
		}
		h.priority[s] = p
	}
	return h
}

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
	var best piconet.SlaveID
	bestPrio := 0
	for _, s := range slaves {
		active := h.believed[s] || v.HasDownBacklog(s)
		if !active {
			continue
		}
		prio := h.priority[s]
		if best == 0 || prio < bestPrio {
			best, bestPrio = s, prio
		}
	}
	if best == 0 {
		// Everyone believed idle: probe round-robin.
		h.probeRR = nextInRing(slaves, h.probeRR)
		best = h.probeRR
	}
	return best, true
}

// Observe implements Poller.
func (h *HOL) Observe(o Outcome) {
	if !h.inited {
		return
	}
	h.believed[o.Slave] = o.Carried() || o.UpMoreData
}
