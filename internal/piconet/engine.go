package piconet

import (
	"fmt"

	"bluegs/internal/baseband"
	"bluegs/internal/sim"
)

// Err returns the first fatal error encountered by the engine (an invalid
// scheduler action). The simulation stops when one occurs.
func (p *Piconet) Err() error { return p.err }

// alignUp rounds t up to the next master transmit opportunity (even slot
// boundary relative to the piconet start).
func (p *Piconet) alignUp(t sim.Time) sim.Time {
	if t < p.startTime {
		t = p.startTime
	}
	offset := t - p.startTime
	k := offset / DecisionInterval
	if offset%DecisionInterval != 0 {
		k++
	}
	return p.startTime + k*DecisionInterval
}

// scheduleDecision arranges for the master to decide at the aligned time at
// or after the given time, superseding any pending idle wake-up.
func (p *Piconet) scheduleDecision(at sim.Time) {
	at = p.alignUp(at)
	if p.wake.Pending() {
		if p.wake.At() <= at {
			return
		}
		p.simulator.Cancel(p.wake)
	}
	p.wake = p.simulator.Schedule(at, p.decideFn)
}

// wakeIfIdle pulls the next decision forward to the next transmit
// opportunity; called on master-side arrivals so an idling master reacts.
func (p *Piconet) wakeIfIdle() {
	if p.stopped {
		return
	}
	now := p.simulator.Now()
	if now < p.busyUntil {
		return // mid-exchange: a decision is already scheduled at its end
	}
	next := p.alignUp(now)
	if p.wake.Pending() {
		if p.wake.At() <= next {
			return
		}
		p.simulator.Cancel(p.wake)
	}
	p.wake = p.simulator.Schedule(next, p.decideFn)
}

// decide runs one master decision opportunity.
func (p *Piconet) decide() {
	p.wake = sim.Event{}
	if p.err != nil || p.stopped {
		return
	}
	now := p.simulator.Now()
	if now < p.busyUntil {
		// A stale wake-up landed mid-exchange (e.g. an arrival event
		// scheduled a decision for the same instant an exchange
		// began); the exchange-end callback will decide next.
		return
	}
	slot := p.slotIndex(now)
	if l := p.scoDue(slot); l != nil {
		// SCO reservations preempt all polling.
		p.executeSCO(now, l)
		return
	}
	window := p.slotsUntilNextReservation(slot)
	action := p.scheduler.Decide(now, int(window))
	switch action.Kind {
	case ActionIdle:
		until := action.Until
		if minNext := now + DecisionInterval; until < minNext {
			until = minNext
		}
		// Never sleep through an SCO reservation.
		if window != noWindowLimit {
			if res := now + sim.Time(window)*baseband.SlotDuration; until > res {
				until = res
			}
		}
		p.scheduleDecision(until)
	case ActionPollGS, ActionPollBE:
		if err := p.executePoll(now, action, window); err != nil {
			p.err = fmt.Errorf("at %v: %w", now, err)
			p.simulator.Stop()
		}
	default:
		p.err = fmt.Errorf("%w: kind %d", ErrActionInvalid, action.Kind)
		p.simulator.Stop()
	}
}

// resolveGSLeg validates and returns the flow state for one leg of a GS
// poll action.
func (p *Piconet) resolveGSLeg(a Action, flow FlowID, dir Direction) (*flowState, error) {
	if flow == None {
		return nil, nil
	}
	fs, ok := p.flows[flow]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownFlow, flow)
	}
	if fs.retired {
		return nil, fmt.Errorf("%w: %d", ErrFlowRetired, flow)
	}
	if fs.suspended {
		return nil, fmt.Errorf("%w: %d", ErrFlowSuspended, flow)
	}
	if fs.cfg.Slave != a.Slave {
		return nil, fmt.Errorf("%w: flow %d is at slave %d, polled slave %d",
			ErrSlaveNotOfFlow, flow, fs.cfg.Slave, a.Slave)
	}
	if fs.cfg.Dir != dir {
		return nil, fmt.Errorf("%w: flow %d direction %v, expected %v",
			ErrQueueMismatch, flow, fs.cfg.Dir, dir)
	}
	if fs.cfg.Class != Guaranteed {
		return nil, fmt.Errorf("%w: flow %d is %v", ErrClassMismatch, flow, fs.cfg.Class)
	}
	return fs, nil
}

// pickBE returns the first best-effort flow of the slave in the given
// direction whose head packet is available at the cutoff, rotating through
// the slave's flows for fairness across multiple BE flows. rr is the
// rotation cursor for that direction; it stays below len(sl.flows), which
// never shrinks, so the rotation wraps with a compare.
func pickBE(sl *slaveState, rr *int, dir Direction, cutoff sim.Time) *flowState {
	n := len(sl.flows)
	i := *rr
	for range n {
		fs := sl.flows[i]
		if i++; i == n {
			i = 0
		}
		if fs.cfg.Class != BestEffort || fs.cfg.Dir != dir || fs.retired || fs.suspended {
			continue
		}
		if fs.headAvailable(cutoff) {
			*rr = i
			return fs
		}
	}
	return nil
}

// executePoll performs one poll exchange starting at now. window is the
// number of slots available before the next SCO reservation; an exchange
// that would overlap it is a scheduler error. The exchange's outcome is
// written straight into pendingPoll for finishPoll.
func (p *Piconet) executePoll(now sim.Time, a Action, window int64) error {
	sl := p.slave(a.Slave)
	if sl == nil {
		return fmt.Errorf("%w: %d", ErrUnknownSlave, a.Slave)
	}

	var downFS, upFS *flowState
	switch a.Kind {
	case ActionPollGS:
		var err error
		if downFS, err = p.resolveGSLeg(a, a.DownFlow, Down); err != nil {
			return err
		}
		if upFS, err = p.resolveGSLeg(a, a.UpFlow, Up); err != nil {
			return err
		}
		if downFS == nil && upFS == nil {
			return fmt.Errorf("%w: GS poll with no flows", ErrActionInvalid)
		}
	case ActionPollBE:
		// The down and up picks rotate independently.
		downFS = pickBE(sl, &sl.beRR, Down, now)
		upFS = pickBE(sl, &sl.beUpRR, Up, now)
	}

	rng := p.simulator.Rand()
	cutoff := now // paper §3.1: data must be available at master TX start
	// An active link fault fails the exchange outright; the radio model
	// is not consulted, so its RNG draws and chain state are untouched.
	linkUp := p.linkDown == nil || !p.linkDown(a.Slave, now)

	pe := &p.pendingPoll
	*pe = pendingExchange{}
	o := &pe.outcome
	o.Start, o.Kind, o.Slave = now, a.Kind, a.Slave

	// Downlink leg.
	down := &o.Down
	down.Type = baseband.TypePOLL
	var downPkt *hlPacket
	if downFS != nil {
		if pkt := downFS.headPacket(cutoff); pkt != nil {
			downPkt = pkt
			seg := pkt.plan[pkt.nextSeg]
			down.Flow, down.Type, down.Bytes = downFS.cfg.ID, seg.Type, seg.Bytes
		}
	}
	downDelivered := false
	if linkUp {
		downDelivered = p.radioModel.Deliver(rng, down.Type)
	}
	downEnd := now + down.Type.Duration()

	// Uplink leg: the slave answers only if it decoded the master's
	// packet; otherwise its response slot passes silently.
	up := &o.Up
	up.Type = baseband.TypeNULL
	var upPkt *hlPacket
	upDelivered := true
	upDur := baseband.TypeNULL.Duration() // silence also occupies one slot
	if downDelivered {
		if upFS != nil {
			if pkt := upFS.headPacket(cutoff); pkt != nil {
				upPkt = pkt
				seg := pkt.plan[pkt.nextSeg]
				up.Flow, up.Type, up.Bytes = upFS.cfg.ID, seg.Type, seg.Bytes
			}
			o.UpMoreData = upFS.moreAfterHeadSegment(cutoff)
		}
		upDelivered = p.radioModel.Deliver(rng, up.Type)
		upDur = up.Type.Duration()
	}
	end := downEnd + upDur
	if int64((end-now)/baseband.SlotDuration) > window {
		return fmt.Errorf("%w: %v+%v exchange, %d free slots",
			ErrWindowOverflow, down.Type, up.Type, window)
	}
	o.End = end

	// Apply downlink state changes.
	if downPkt != nil {
		if downDelivered {
			p.advanceHead(downFS, downPkt, downEnd, down)
		} else {
			down.Lost = true
			down.Bytes = 0
			p.handleLoss(downFS, downPkt, downEnd)
		}
	}
	// Apply uplink state changes.
	if upPkt != nil {
		if upDelivered {
			p.advanceHead(upFS, upPkt, end, up)
		} else {
			up.Lost = true
			up.Bytes = 0
			p.handleLoss(upFS, upPkt, end)
		}
	}

	p.busyUntil = end
	pe.downOK, pe.upOK = downDelivered, upDelivered && downDelivered
	p.simulator.Schedule(end, p.finishPollFn)
	return nil
}

// pendingExchange carries the one in-flight ACL exchange to its completion
// event, replacing a per-poll closure environment. busyUntil guarantees at
// most one exchange is outstanding, so a single slot on the Piconet
// suffices.
type pendingExchange struct {
	outcome      Outcome
	downOK, upOK bool
}

// traceEntry renders the exchange for a Tracer.
func (pe *pendingExchange) traceEntry() TraceEntry {
	o := &pe.outcome
	kind := TraceGS
	if o.Kind == ActionPollBE {
		kind = TraceBE
	}
	return TraceEntry{
		Start: o.Start, End: o.End, Kind: kind, Slave: o.Slave,
		DownType: o.Down.Type, UpType: o.Up.Type,
		DownFlow: o.Down.Flow, UpFlow: o.Up.Flow,
		DownBytes: o.Down.Bytes, UpBytes: o.Up.Bytes,
		Lost: o.Down.Lost || o.Up.Lost,
	}
}

// finishPoll runs at an ACL exchange's end. Slots are booked at exchange end
// so that a SlotAccount snapshot never counts slots beyond the measurement
// horizon.
func (p *Piconet) finishPoll() {
	pe := &p.pendingPoll
	p.account(pe.outcome.Kind, &pe.outcome.Down, pe.downOK, &pe.outcome.Up, pe.upOK)
	if p.tracer != nil {
		p.tracer.Trace(pe.traceEntry())
	}
	p.scheduler.OnOutcome(&pe.outcome)
	p.superviseExchange(pe)
	p.decide()
}

// superviseExchange feeds one completed ACL exchange into the link
// supervision timeout: an exchange with no decodable slave response is a
// failure, and supLimit consecutive failures declare the link dead —
// firing onLinkDead once per failure episode. Any decodable response
// re-arms the timeout.
func (p *Piconet) superviseExchange(pe *pendingExchange) {
	if p.supLimit <= 0 || p.onLinkDead == nil {
		return
	}
	sl := p.slave(pe.outcome.Slave)
	if sl == nil {
		return
	}
	if pe.upOK {
		sl.consecFails = 0
		sl.linkDead = false
		return
	}
	if sl.consecFails == 0 {
		sl.failingSince = pe.outcome.Start
	}
	sl.consecFails++
	if sl.consecFails >= p.supLimit && !sl.linkDead {
		sl.linkDead = true
		p.onLinkDead(sl.id, sl.failingSince, pe.outcome.End)
	}
}

// advanceHead consumes the head segment of pkt at the given delivery time,
// recording completion in the leg outcome and the flow statistics and
// firing the delivery hook on packet completion.
func (p *Piconet) advanceHead(fs *flowState, pkt *hlPacket, deliveredAt sim.Time, leg *LegOutcome) {
	pkt.nextSeg++
	if pkt.done() {
		leg.CompletedPacketSize = pkt.size
		intact := !pkt.corrupt
		if intact {
			fs.delay.Add(deliveredAt - pkt.arrival)
			fs.delivered.Add(pkt.size)
		} else {
			fs.lost.Add(pkt.size)
		}
		fs.popCompleted()
		if p.onDelivery != nil {
			p.onDelivery(fs.cfg.ID, pkt.size, deliveredAt, intact)
		}
	}
}

// handleLoss processes an on-air segment loss: with ARQ the segment stays at
// the head of the queue for retransmission; without it the segment is
// consumed and the packet marked corrupt (counted lost at completion — the
// delivery hook still fires so observers see every packet leave the queue).
func (p *Piconet) handleLoss(fs *flowState, pkt *hlPacket, at sim.Time) {
	if p.arq {
		return // segment remains pending; the next poll retries it
	}
	pkt.corrupt = true
	pkt.nextSeg++
	if pkt.done() {
		fs.lost.Add(pkt.size)
		fs.popCompleted()
		if p.onDelivery != nil {
			p.onDelivery(fs.cfg.ID, pkt.size, at, false)
		}
	}
}

// account books the exchange's slots into the slot account.
func (p *Piconet) account(kind ActionKind, down *LegOutcome, downOK bool, up *LegOutcome, upOK bool) {
	gs := kind == ActionPollGS
	book := func(leg *LegOutcome, delivered bool) {
		slots := int64(leg.Type.Slots())
		switch {
		case leg.Type == baseband.TypePOLL || leg.Type == baseband.TypeNULL:
			if gs {
				p.acct.GSOverhead += slots
			} else {
				p.acct.BEOverhead += slots
			}
		case !delivered && p.arq:
			p.acct.Retransmit += slots
		case gs:
			p.acct.GSData += slots
		default:
			p.acct.BEData += slots
		}
	}
	book(down, downOK)
	book(up, upOK)
}
