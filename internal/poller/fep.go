package poller

import (
	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// FEP is the Fair Exhaustive Poller of Johansson, Körner & Johansson
// (Broadband Communications '99). Slaves are partitioned into an active and
// an inactive set. Active slaves are polled in round-robin order and stay
// active while their polls move data; a slave whose poll moves no data is
// demoted to the inactive set. Inactive slaves are probed periodically so
// that newly backlogged slaves are promoted back quickly, while idle slaves
// consume few slots. The zero value is ready to use.
type FEP struct {
	inited   bool
	active   []piconet.SlaveID
	inactive []piconet.SlaveID
	// rr rotates through the active set.
	rr int
	// probe rotates through the inactive set between cycles.
	probe int
	// pending is the slave we just told the master to poll.
	pending piconet.SlaveID
	// sinceProbe counts polls since the last inactive probe; one probe
	// is injected every probeEvery polls so inactive slaves starve
	// neither the actives nor themselves.
	sinceProbe int
}

var _ Poller = (*FEP)(nil)

// probeEvery is how many active-set polls pass between inactive probes.
const probeEvery = 8

// Name implements Poller.
func (*FEP) Name() string { return "fep" }

func (f *FEP) initFrom(v View) {
	f.active = append(f.active[:0], v.Slaves()...)
	f.inactive = f.inactive[:0]
	f.inited = true
}

// Next implements Poller.
func (f *FEP) Next(_ sim.Time, v View) (piconet.SlaveID, bool) {
	if !f.inited {
		f.initFrom(v)
	}
	if len(f.active) == 0 && len(f.inactive) == 0 {
		return 0, false
	}
	// Promote any inactive slave with known downlink backlog: the master
	// sees its own queues.
	for i := 0; i < len(f.inactive); {
		if v.HasDownBacklog(f.inactive[i]) {
			f.promote(f.inactive[i])
		} else {
			i++
		}
	}
	// Periodic probe of one inactive slave, and always when no actives.
	if len(f.inactive) > 0 && (len(f.active) == 0 || f.sinceProbe >= probeEvery) {
		f.sinceProbe = 0
		f.probe %= len(f.inactive)
		f.pending = f.inactive[f.probe]
		f.probe++
		return f.pending, true
	}
	f.sinceProbe++
	f.rr %= len(f.active)
	f.pending = f.active[f.rr]
	f.rr++
	return f.pending, true
}

// Observe implements Poller.
func (f *FEP) Observe(o Outcome) {
	if o.Slave != f.pending {
		return
	}
	if o.Carried() || o.UpMoreData {
		f.promote(o.Slave)
		return
	}
	f.demote(o.Slave)
}

// promote moves the slave to the tail of the active set (no-op when already
// active).
func (f *FEP) promote(s piconet.SlaveID) {
	for _, a := range f.active {
		if a == s {
			return
		}
	}
	f.inactive = remove(f.inactive, s)
	f.active = append(f.active, s)
}

// demote moves the slave to the inactive set.
func (f *FEP) demote(s piconet.SlaveID) {
	f.active = remove(f.active, s)
	for _, i := range f.inactive {
		if i == s {
			return
		}
	}
	f.inactive = append(f.inactive, s)
}

func remove(list []piconet.SlaveID, s piconet.SlaveID) []piconet.SlaveID {
	for i, v := range list {
		if v == s {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}
