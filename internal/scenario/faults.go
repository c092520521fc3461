package scenario

import (
	"fmt"
	"time"

	"bluegs/internal/faults"
	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// RecoverySpec arms the self-healing machinery of a run: the link
// supervision timeout every piconet engine runs, and the policy the
// runner applies to Guaranteed Service flows whose link the timeout
// declares dead. It is pure data and enters the spec's canonical
// fingerprint.
type RecoverySpec struct {
	// Supervision is the number of consecutive failed polls after which
	// a link is declared dead (the Bluetooth link supervision timeout,
	// scaled to polls). Zero disables supervision entirely; setting a
	// Policy with Supervision zero defaults it to 3.
	Supervision int
	// Policy is what happens to a suspended flow: faults.PolicyNone
	// leaves it suspended (contract lost, queue flushed),
	// faults.PolicyDegrade renegotiates it at a looser bound when the
	// declared fault window ends, faults.PolicyHandoff moves it to
	// another piconet make-before-break.
	Policy faults.Policy
	// DegradeFactor scales the spec's DelayTarget into the degraded
	// renegotiation target (PolicyDegrade only; values <= 1 default
	// to 4).
	DegradeFactor float64
	// HandoffTarget names the piconet handed-off flows move to
	// (PolicyHandoff only; "" picks the first other live piconet in
	// creation order).
	HandoffTarget string
}

// Flow fates (FlowResult.Fate): what the fault/recovery machinery did to
// a flow. The empty string means the flow was never touched.
const (
	// FateSuspended: the link died and no recovery policy retrieved the
	// flow — its guarantee is lost but its flushed queue cannot produce
	// late deliveries.
	FateSuspended = "suspended"
	// FateDegraded: the flow was renegotiated at a looser delay bound
	// after its link died, and is back in service.
	FateDegraded = "degraded"
	// FateMoved: the flow was handed off to another piconet; this row is
	// the retired source-side remnant (the target piconet carries the
	// live continuation under the same flow id).
	FateMoved = "moved"
	// FateCrashed: the flow's piconet master crashed; the flow is
	// orphaned.
	FateCrashed = "crashed"
)

// validateFaults statically checks the fault plan and recovery spec
// against the scenario: structurally valid windows, piconet names the run
// can ever create, and a known recovery policy. Expects the defaulted
// view (names filled, plan resolved).
func validateFaults(spec Spec) error {
	if err := spec.Faults.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if !spec.Recovery.Policy.Valid() {
		return fmt.Errorf("%w: unknown recovery policy %q", ErrBadSpec, spec.Recovery.Policy)
	}
	if spec.Recovery.DegradeFactor < 0 {
		return fmt.Errorf("%w: negative DegradeFactor %g", ErrBadSpec, spec.Recovery.DegradeFactor)
	}
	// Names the scenario can ever create: the initial piconets plus every
	// timeline add_piconet.
	known := make(map[string]bool)
	for _, ps := range spec.piconetSpecs() {
		known[ps.Name] = true
	}
	for _, ev := range spec.Timeline {
		if ev.AddPiconet != nil {
			known[ev.AddPiconet.Name] = true
		}
	}
	checkName := func(what, name string) error {
		if !known[name] {
			return fmt.Errorf("%w: %s targets unknown piconet %q", ErrBadSpec, what, name)
		}
		return nil
	}
	for _, o := range spec.Faults.Outages {
		if err := checkName("fault outage", o.Piconet); err != nil {
			return err
		}
	}
	for _, d := range spec.Faults.Departures {
		if err := checkName("fault departure", d.Piconet); err != nil {
			return err
		}
	}
	for _, c := range spec.Faults.Crashes {
		if err := checkName("master crash", c.Piconet); err != nil {
			return err
		}
	}
	if t := spec.Recovery.HandoffTarget; t != "" {
		if err := checkName("handoff target", t); err != nil {
			return err
		}
	}
	return nil
}

// onLinkDead is the supervision timeout's callback: the slave's link was
// declared dead at `at` after failing since `since`. Every installed
// Guaranteed Service flow at the slave is suspended — source cancelled,
// queue flushed, reservation released — with an OpSuspend record carrying
// the detection latency; then the configured recovery policy takes over.
func (p *piconetRunner) onLinkDead(slave piconet.SlaveID, since, at sim.Time) {
	r := p.r
	if r.err != nil || !p.live() {
		return
	}
	var hit []piconet.FlowID
	for _, id := range p.pn.FlowsAt(slave) {
		cfg, _ := p.pn.FlowConfig(id)
		if cfg.Class != piconet.Guaranteed {
			continue
		}
		if p.routeOf[id] != nil {
			continue // routes suspend end-to-end, below
		}
		if !p.stopSource(id) {
			continue // already suspended, moved or retired
		}
		if r.err = p.pn.SuspendFlow(id); r.err != nil {
			break
		}
		if _, isGS := p.ctrl.Find(id); isGS {
			if r.err = p.ctrl.Remove(id); r.err != nil {
				break
			}
		}
		p.fates[id] = FateSuspended
		p.accept(AdmissionRecord{
			Op: OpSuspend, Flow: id, Slave: slave,
			Latency: at - since,
			Reason:  "supervision timeout",
		})
		hit = append(hit, id)
	}
	if r.err == nil && len(hit) > 0 {
		if r.err = p.replan(); r.err == nil {
			switch r.spec.Recovery.Policy {
			case faults.PolicyDegrade:
				for _, id := range hit {
					p.scheduleDegrade(id, slave, func() { p.applyDegrade(id, slave) })
				}
			case faults.PolicyHandoff:
				for _, id := range hit {
					p.applyHandoff(id, "", true)
					if r.err != nil {
						break
					}
				}
			}
		}
	}
	if r.err == nil {
		// Routes with a hop at the dead link suspend end-to-end: a broken
		// hop breaks the whole path, so every hop's reservation is
		// released, not just the local one.
		r.onRouteLinkDead(p, slave, since, at)
	}
	if r.err != nil {
		r.s.Stop()
	}
}

// scheduleDegrade arranges the graceful-degradation renegotiation of a
// suspended flow or route (id) that lost its link at slave: if the
// compiled fault plan says the link is inside a declared window, degrade
// waits for the window's end (a link that never returns is a rejected
// degrade); otherwise — supervision tripped on channel loss alone, or
// after the window — it renegotiates now.
func (p *piconetRunner) scheduleDegrade(id piconet.FlowID, slave piconet.SlaveID, degrade func()) {
	r := p.r
	if pf := r.fsched.Piconet(p.name); pf != nil {
		if iv, down := pf.Covering(slave, r.s.Now()); down {
			if iv.End == faults.Forever {
				p.reject(OpDegrade, id, slave, "link never returns")
				return
			}
			r.s.Schedule(iv.End, degrade)
			return
		}
	}
	degrade()
}

// applyDegrade renegotiates a suspended flow at the degraded delay target
// (DegradeFactor × the spec's DelayTarget) through the paper's online
// admission test, resuming it on success. The old reservation was
// released at suspension; a refusal leaves the flow suspended.
func (p *piconetRunner) applyDegrade(id piconet.FlowID, slave piconet.SlaveID) {
	r := p.r
	if r.err != nil || !p.live() || p.fates[id] != FateSuspended {
		return
	}
	g, ok := p.gsSpecs[id]
	if !ok {
		p.reject(OpDegrade, id, slave, "no flow spec recorded")
		return
	}
	target := time.Duration(float64(r.spec.DelayTarget) * r.spec.Recovery.DegradeFactor)
	pf, err := p.ctrl.AdmitForDelay(r.spec.gsRequest(g, target))
	if err != nil {
		p.reject(OpDegrade, id, slave, err.Error())
		return
	}
	if r.err = p.pn.ResumeFlow(id); r.err == nil {
		r.err = p.replan()
	}
	if r.err != nil {
		r.s.Stop()
		return
	}
	p.fates[id] = FateDegraded
	p.attachGSSource(g)
	p.pn.Kick()
	p.accept(AdmissionRecord{
		Op: OpDegrade, Flow: id, Slave: g.Slave,
		Bound: pf.Bound, Rate: pf.Request.Rate,
	})
}

// handoffTarget resolves where a handed-off flow goes: the explicit
// request, the spec's HandoffTarget, or the first other live piconet in
// creation order.
func (p *piconetRunner) handoffTarget(to string) (*piconetRunner, string) {
	r := p.r
	if to == "" {
		to = r.spec.Recovery.HandoffTarget
	}
	if to != "" {
		q, ok := r.byName[to]
		if !ok {
			return nil, fmt.Sprintf("unknown piconet %q", to)
		}
		if q == p {
			return nil, "cannot move a flow to its own piconet"
		}
		if !q.live() {
			return nil, fmt.Sprintf("piconet %q is out of service", to)
		}
		return q, ""
	}
	for _, q := range r.pns {
		if q != p && q.live() {
			return q, ""
		}
	}
	return nil, "no live piconet to hand off to"
}

// applyHandoff moves a Guaranteed Service flow to another piconet
// make-before-break: the target admits the flow — at its own
// interference-derated rates — before the source releases anything, so a
// refused admission leaves the flow exactly where it was. suspended says
// whether the flow is currently suspended (the recovery-policy path) or
// live (a move_flow timeline event).
func (p *piconetRunner) applyHandoff(id piconet.FlowID, to string, suspended bool) {
	r := p.r
	g, ok := p.gsSpecs[id]
	if !ok {
		p.reject(OpHandoff, id, 0, "flow is not a known GS flow")
		return
	}
	q, why := p.handoffTarget(to)
	if q == nil {
		p.reject(OpHandoff, id, g.Slave, why)
		return
	}
	if _, dup := q.pn.FlowConfig(id); dup {
		p.reject(OpHandoff, id, g.Slave, fmt.Sprintf("flow id %d already exists at %q", id, q.name))
		return
	}
	// Make: admission at the target first.
	pf, err := q.ctrl.AdmitForDelay(r.spec.gsRequest(g, r.spec.DelayTarget))
	if err != nil {
		p.reject(OpHandoff, id, g.Slave, fmt.Sprintf("target %q: %v", q.name, err))
		return
	}
	r.err = q.startGS(g)
	// Break: release at the source only once the target carries the flow
	// (a suspended flow released its reservation at suspension).
	if r.err == nil && !suspended {
		p.stopSource(id)
		r.err = p.release(id)
	}
	if r.err == nil {
		r.err = p.pn.RetireFlow(id)
	}
	if r.err != nil {
		r.s.Stop()
		return
	}
	p.fates[id] = FateMoved
	q.accept(AdmissionRecord{
		Op: OpHandoff, Flow: id, Slave: g.Slave,
		Bound: pf.Bound, Rate: pf.Request.Rate,
		Reason: fmt.Sprintf("from %q", p.name),
	})
}

// applyMove handles the move_flow timeline event: a make-before-break
// handoff of an installed flow, ordered by the scenario rather than the
// recovery policy (planned mobility instead of self-healing).
func (p *piconetRunner) applyMove(mv MoveFlow) {
	if p.routeOf[mv.Flow] != nil {
		p.reject(OpHandoff, mv.Flow, 0, "routed flows cannot be moved; their piconets are fixed by the route")
		return
	}
	if _, installed := p.sources[mv.Flow]; !installed {
		// Admission was rejected, or the flow already left/moved.
		p.reject(OpHandoff, mv.Flow, 0, "flow not installed")
		return
	}
	p.applyHandoff(mv.Flow, mv.To, false)
}

// applyCrash halts a piconet's master at the fault plan's instant (see
// takeOut): its flows are orphaned — sources keep generating into queues
// nobody will ever poll (deliveries simply end, so orphaned flows cannot
// produce late deliveries that violate their bounds).
func (r *runner) applyCrash(name string) {
	if r.err != nil {
		return
	}
	p, why := r.inService(name)
	if p == nil {
		r.reject(name, OpCrash, 0, 0, why)
		return
	}
	for _, id := range p.pn.Flows() {
		cfg, _ := p.pn.FlowConfig(id)
		if cfg.Class != piconet.Guaranteed {
			continue
		}
		// Intact and degraded flows lose their master; flows already
		// suspended or moved keep their earlier fate.
		if f := p.fates[id]; f == "" || f == FateDegraded {
			p.fates[id] = FateCrashed
		}
	}
	r.takeOut(p, OpCrash, FateCrashed, fmt.Sprintf("master of %q crashed", name))
	if r.err != nil {
		r.s.Stop()
	}
}
