package piconet

import (
	"errors"
	"fmt"

	"bluegs/internal/baseband"
	"bluegs/internal/sim"
	"bluegs/internal/stats"
)

// Errors returned by SCO link management.
var (
	ErrNotSCOType     = errors.New("piconet: packet type is not an SCO type")
	ErrSCOMixedTypes  = errors.New("piconet: all SCO links must use the same HV type")
	ErrSCOCapacity    = errors.New("piconet: SCO slot capacity exhausted")
	ErrSCODuplicate   = errors.New("piconet: slave already has an SCO link")
	ErrNoSCOLink      = errors.New("piconet: slave has no SCO link")
	ErrWindowOverflow = errors.New("piconet: ACL exchange does not fit before the next SCO reservation")
)

// scoLink is one synchronous connection: every intervalSlots slots
// (counting master transmission slots), starting at offsetSlots, a two-slot
// HV exchange runs regardless of the polling discipline.
type scoLink struct {
	slave         SlaveID
	typ           baseband.PacketType
	offsetSlots   int64
	intervalSlots int64
	down, up      *stats.Meter
}

// AddSCOLink reserves a synchronous (SCO) channel to the slave using the
// given HV packet type. SCO links preempt all ACL polling: their slot pairs
// recur unconditionally (HV1 every 2 slots, HV2 every 4, HV3 every 6), and
// ACL exchanges are only started when they fit entirely before the next
// reservation. All links in one piconet must use the same HV type; the
// capacity is 1 HV1, 2 HV2 or 3 HV3 links. Links may be added mid-run
// (voice calls arriving in a timeline scenario); the master is woken so a
// sleeping decision loop cannot overshoot the new reservation.
func (p *Piconet) AddSCOLink(slave SlaveID, typ baseband.PacketType) error {
	if err := p.CheckSCOLink(slave, typ); err != nil {
		return err
	}
	if p.slave(slave) == nil {
		return fmt.Errorf("%w: %d", ErrUnknownSlave, slave)
	}
	interval := scoIntervalSlots(typ)
	// Claim the lowest free reservation offset: with dynamic links the
	// occupied offsets may have gaps (a dropped call frees its pair).
	used := make(map[int64]bool, len(p.scoLinks))
	for _, l := range p.scoLinks {
		used[l.offsetSlots] = true
	}
	var offset int64
	for used[offset] {
		offset += 2
	}
	p.scoLinks = append(p.scoLinks, &scoLink{
		slave:         slave,
		typ:           typ,
		offsetSlots:   offset,
		intervalSlots: interval,
		down:          &stats.Meter{},
		up:            &stats.Meter{},
	})
	p.Kick()
	return nil
}

// scoIntervalSlots returns the reservation cadence of an HV type.
func scoIntervalSlots(typ baseband.PacketType) int64 {
	switch typ {
	case baseband.TypeHV1:
		return 2
	case baseband.TypeHV2:
		return 4
	default:
		return 6
	}
}

// CheckSCOLink validates a prospective SCO link against the link set —
// type, same-HV-type rule, per-slave uniqueness and slot capacity —
// without mutating anything (slave registration is checked by AddSCOLink
// itself). Callers that must not leave partial state behind on rejection
// (the timeline's add_sco) precheck with it before registering the slave.
func (p *Piconet) CheckSCOLink(slave SlaveID, typ baseband.PacketType) error {
	if !typ.IsSCO() {
		return fmt.Errorf("%w: %v", ErrNotSCOType, typ)
	}
	interval := scoIntervalSlots(typ)
	for _, l := range p.scoLinks {
		if l.typ != typ {
			return fmt.Errorf("%w: have %v, adding %v", ErrSCOMixedTypes, l.typ, typ)
		}
		if l.slave == slave {
			return fmt.Errorf("%w: slave %d", ErrSCODuplicate, slave)
		}
	}
	if int64(len(p.scoLinks)) >= interval/2 {
		return fmt.Errorf("%w: %v supports %d links", ErrSCOCapacity, typ, interval/2)
	}
	return nil
}

// DropSCOLink releases the slave's SCO reservation. The link's meters stay
// readable through SCOMeters so a run's report covers calls that ended
// mid-run.
func (p *Piconet) DropSCOLink(slave SlaveID) error {
	for i, l := range p.scoLinks {
		if l.slave == slave {
			p.scoLinks = append(p.scoLinks[:i], p.scoLinks[i+1:]...)
			p.retiredSCO = append(p.retiredSCO, l)
			return nil
		}
	}
	return fmt.Errorf("%w: %d", ErrNoSCOLink, slave)
}

// SCOMeters returns the delivered-byte meters (master-to-slave,
// slave-to-master) of the slave's SCO link, including links dropped
// mid-run (the most recent link wins if a slave had several).
func (p *Piconet) SCOMeters(slave SlaveID) (down, up *stats.Meter, ok bool) {
	for _, l := range p.scoLinks {
		if l.slave == slave {
			return l.down, l.up, true
		}
	}
	for i := len(p.retiredSCO) - 1; i >= 0; i-- {
		if l := p.retiredSCO[i]; l.slave == slave {
			return l.down, l.up, true
		}
	}
	return nil, nil, false
}

// MaxACLWindowSlots returns the largest ACL exchange (in slots) that can
// run between SCO reservations, or a large sentinel when no SCO links
// exist. Admission control must reject flows whose worst exchange exceeds
// this window.
func (p *Piconet) MaxACLWindowSlots() int {
	if len(p.scoLinks) == 0 {
		return int(noWindowLimit)
	}
	interval := p.scoLinks[0].intervalSlots
	window := interval - 2*int64(len(p.scoLinks))
	if window < 0 {
		window = 0
	}
	return int(window)
}

// noWindowLimit is the freeSlots value passed to schedulers when no SCO
// reservation constrains the channel.
const noWindowLimit int64 = 1 << 30

// slotIndex converts a time to the master slot counter since start.
func (p *Piconet) slotIndex(t sim.Time) int64 {
	return int64((t - p.startTime) / baseband.SlotDuration)
}

// scoDue returns the link reserved at exactly the given slot, if any.
func (p *Piconet) scoDue(slot int64) *scoLink {
	for _, l := range p.scoLinks {
		if slot >= l.offsetSlots && (slot-l.offsetSlots)%l.intervalSlots == 0 {
			return l
		}
	}
	return nil
}

// slotsUntilNextReservation returns how many slots from the given slot are
// free for an ACL exchange before any SCO reservation begins.
func (p *Piconet) slotsUntilNextReservation(slot int64) int64 {
	if len(p.scoLinks) == 0 {
		return noWindowLimit
	}
	next := noWindowLimit
	for _, l := range p.scoLinks {
		var k int64
		if slot > l.offsetSlots {
			k = (slot - l.offsetSlots + l.intervalSlots - 1) / l.intervalSlots
		}
		at := l.offsetSlots + k*l.intervalSlots
		if at-slot < next {
			next = at - slot
		}
	}
	return next
}

// executeSCO runs the two-slot HV exchange of the link at now. A voice
// stream always has data (the Bluetooth SCO model: the codec produces
// bytes continuously), so the link carries a full payload in each
// direction on every reservation, subject to the radio model.
func (p *Piconet) executeSCO(now sim.Time, l *scoLink) {
	rng := p.simulator.Rand()
	end := now + 2*baseband.SlotDuration
	entry := TraceEntry{
		Start: now, End: end, Kind: TraceSCO, Slave: l.slave,
		DownType: l.typ, UpType: l.typ,
	}
	if p.linkDown != nil && p.linkDown(l.slave, now) {
		// Link fault: both legs lost, radio model untouched (no RNG
		// draws), the reserved slot pair still elapses.
		entry.Lost = true
	} else {
		if p.radioModel.Deliver(rng, l.typ) {
			l.down.Add(l.typ.Payload())
			entry.DownBytes = l.typ.Payload()
		} else {
			entry.Lost = true
		}
		if p.radioModel.Deliver(rng, l.typ) {
			l.up.Add(l.typ.Payload())
			entry.UpBytes = l.typ.Payload()
		} else {
			entry.Lost = true
		}
	}
	p.busyUntil = end
	p.pendingSCO = entry
	p.simulator.Schedule(end, p.finishSCOFn)
}

// finishSCO runs at an SCO reservation's end, booking its slot pair and
// resuming the decision loop. Like finishPoll, it is pre-bound once so the
// per-reservation completion schedules without allocating.
func (p *Piconet) finishSCO() {
	p.acct.SCO += 2
	p.trace(p.pendingSCO)
	p.decide()
}
