package scenario

import (
	"fmt"
	"time"

	"bluegs/internal/admission"
	"bluegs/internal/faults"
	"bluegs/internal/piconet"
	"bluegs/internal/sim"
	"bluegs/internal/stats"
	"bluegs/internal/traffic"
)

// routeState is the live state of one end-to-end route: its derived hops,
// the per-hop FIFO of origin timestamps tracking every packet in flight,
// and the end-to-end measurements.
type routeState struct {
	spec RouteSpec
	hops []routeHop
	// origins[i] holds, oldest first, the generation instants of the
	// packets currently queued or in delivery at hop i. Per-flow delivery
	// completions are monotone in time, so the FIFO discipline matches the
	// piconet queues exactly.
	origins [][]sim.Time
	delay   *stats.DurationStats

	offered        uint64
	delivered      uint64
	lost           uint64
	deliveredBytes uint64
	// peakQueue is the high-water mark of packets in flight past hop 1:
	// the bridges' store-and-forward backlog.
	peakQueue int

	// suspended stops forwarding (faults severed the route); retired marks
	// a remove_route departure. fate mirrors FlowResult.Fate.
	suspended bool
	retired   bool
	fate      string
}

// hopIndex returns the index of the route's hop in the named piconet.
func (rt *routeState) hopIndex(pn string) (int, bool) {
	for i, h := range rt.hops {
		if h.Piconet == pn {
			return i, true
		}
	}
	return 0, false
}

// hopRef addresses one hop of one route (the per-piconet view the builder
// uses to install static hop flows).
type hopRef struct {
	rt  *routeState
	idx int
}

// initRoutes derives the given static routes' hops and prepares their
// state before any piconet is built (buildPiconet folds the hops of its
// piconet into the admission plan and flow set). Each shard gets the
// routes whose hops it owns; a one-group run gets the whole
// spec.Routes slice.
func (r *runner) initRoutes(rts []RouteSpec) error {
	r.routeByID = make(map[piconet.FlowID]*routeState)
	for _, spec := range rts {
		rt, err := r.newRouteState(spec)
		if err != nil {
			return err
		}
		r.routes = append(r.routes, rt)
		r.routeByID[spec.ID] = rt
	}
	return nil
}

// newRouteState derives a route's hops and allocates its bookkeeping.
func (r *runner) newRouteState(spec RouteSpec) (*routeState, error) {
	hops, err := r.spec.routeHops(spec)
	if err != nil {
		return nil, err
	}
	return &routeState{
		spec:    spec,
		hops:    hops,
		origins: make([][]sim.Time, len(hops)),
		delay:   new(stats.DurationStats),
	}, nil
}

// staticHopsAt lists the static routes' hops hosted by the named piconet,
// in route declaration order (the builder's deterministic iteration).
func (r *runner) staticHopsAt(pn string) []hopRef {
	var out []hopRef
	for _, rt := range r.routes {
		if i, ok := rt.hopIndex(pn); ok {
			out = append(out, hopRef{rt: rt, idx: i})
		}
	}
	return out
}

// residencyFor compiles the named piconet's bridge windows into the two
// runtime oracles: the link gate (true = the bridge is outside its window,
// so a poll fails like a declared outage — deterministically, no RNG
// draws) and the scheduler's reachability oracle (absent now, open at the
// returned instant — see core.WithResidency). Both are nil when no bridge
// is resident here, keeping bridge-free piconets on the exact pre-bridge
// code path.
func (r *runner) residencyFor(pn string) (gate func(piconet.SlaveID, sim.Time) bool,
	reach func(piconet.SlaveID, sim.Time) (bool, sim.Time)) {
	type window struct{ period, start, end time.Duration }
	wins := make(map[piconet.SlaveID]window)
	for _, br := range r.spec.Bridges {
		if res, ok := br.residencyIn(pn); ok {
			wins[res.Slave] = window{period: br.Period, start: res.Start, end: res.End}
		}
	}
	if len(wins) == 0 {
		return nil, nil
	}
	gate = func(slave piconet.SlaveID, now sim.Time) bool {
		w, ok := wins[slave]
		if !ok {
			return false
		}
		phi := now % w.period
		return phi < w.start || phi >= w.end
	}
	reach = func(slave piconet.SlaveID, at sim.Time) (bool, sim.Time) {
		w, ok := wins[slave]
		if !ok {
			return true, 0
		}
		phi := at % w.period
		if phi >= w.start && phi < w.end {
			return true, 0
		}
		if phi < w.start {
			return false, at + (w.start - phi)
		}
		return false, at + (w.period - phi) + w.start
	}
	return gate, reach
}

// hopRequest builds one hop's admission request: the route's TSpec at the
// hop's endpoint, derated by the bridge's residency duty cycle through
// Request.SuccessScale (composed multiplicatively with the controller's
// interference derate).
func (p *piconetRunner) hopRequest(rt *routeState, h routeHop) admission.DelayRequest {
	return admission.DelayRequest{
		Request: admission.Request{
			ID:           rt.spec.ID,
			Slave:        h.Slave,
			Dir:          h.Dir,
			Spec:         rt.spec.Spec(),
			Allowed:      p.r.spec.allowedFor(rt.spec.Allowed),
			SuccessScale: h.Scale,
		},
		Target: h.Target,
	}
}

// installHop registers one admitted hop flow with the piconet engine.
func (p *piconetRunner) installHop(rt *routeState, h routeHop) error {
	if err := p.installFlow(piconet.FlowConfig{
		ID: rt.spec.ID, Slave: h.Slave, Dir: h.Dir,
		Class: piconet.Guaranteed, Allowed: p.r.spec.allowedFor(rt.spec.Allowed),
	}); err != nil {
		return err
	}
	p.routeOf[rt.spec.ID] = rt
	return nil
}

// attachRouteSource starts the route's CBR source in its first-hop
// piconet. It is the GS source with origin bookkeeping: each generated
// packet's timestamp enters the hop-0 FIFO so the final-hop delivery can
// measure the end-to-end delay. The RNG draw order matches attachSource
// exactly, so a single-hop route is packet-identical to the equivalent
// flat GS flow.
func (p *piconetRunner) attachRouteSource(rt *routeState) {
	r := p.r
	g := rt.spec
	phase := g.Phase
	if phase < 0 {
		phase = 0
	}
	gen := traffic.CBR{Interval: g.Interval}
	sizes := traffic.UniformSize{Min: g.MinSize, Max: g.MaxSize}
	src := &source{}
	var tick func()
	tick = func() {
		rt.offered++
		rt.origins[0] = append(rt.origins[0], r.s.Now())
		_ = p.pn.EnqueuePacket(g.ID, sizes.Draw(r.s.Rand()))
		src.ev = r.s.After(gen.NextInterval(), tick)
	}
	src.ev = r.s.Schedule(r.s.Now()+phase, tick)
	p.sources[g.ID] = src
}

// onHopComplete is the piconet delivery hook: one higher-layer packet of
// some flow finished its exchange in piconet p at instant `at`. For route
// hops it advances the packet along the path — recording the end-to-end
// delay on the final hop, or future-dating the packet into the next hop's
// up-flow queue (the bridge's store-and-forward handoff).
func (r *runner) onHopComplete(p *piconetRunner, flow piconet.FlowID, size int, at sim.Time, delivered bool) {
	rt := p.routeOf[flow]
	if rt == nil || rt.suspended || rt.retired {
		return
	}
	idx, ok := rt.hopIndex(p.name)
	if !ok || len(rt.origins[idx]) == 0 {
		return
	}
	origin := rt.origins[idx][0]
	rt.origins[idx] = rt.origins[idx][1:]
	if !delivered {
		// Corrupted on air with ARQ off: the packet dies at this hop.
		rt.lost++
		return
	}
	if idx == len(rt.hops)-1 {
		rt.delivered++
		rt.deliveredBytes += uint64(size)
		rt.delay.Add(at - origin)
		return
	}
	q, _ := r.inService(rt.hops[idx+1].Piconet)
	if q == nil {
		rt.lost++
		return
	}
	rt.origins[idx+1] = append(rt.origins[idx+1], origin)
	if n := len(rt.origins[idx+1]); n > rt.peakQueue {
		rt.peakQueue = n
	}
	if err := q.pn.EnqueuePacketAt(flow, size, at); err != nil {
		r.err = fmt.Errorf("route %d: hop %d handoff: %w", rt.spec.ID, idx+2, err)
		r.s.Stop()
	}
}

// applyAddRoute handles the add_route timeline event: the end-to-end
// budget splits across the hops, every hop runs the paper's online
// admission test — hop i+1 only after hop i succeeded — and a refusal at
// any hop rolls the earlier admissions back, so the route is installed
// whole or not at all. Each admitted hop logs its own per-hop record.
func (r *runner) applyAddRoute(spec RouteSpec) {
	if r.routeByID[spec.ID] != nil {
		r.reject("", OpAddRoute, spec.ID, 0, "route id already used")
		return
	}
	rt, err := r.newRouteState(spec)
	if err != nil {
		r.reject("", OpAddRoute, spec.ID, 0, err.Error())
		return
	}
	prs := make([]*piconetRunner, len(rt.hops))
	for i, h := range rt.hops {
		p, why := r.inService(h.Piconet)
		if p == nil {
			r.reject(h.Piconet, OpAddRoute, spec.ID, h.Slave, why)
			return
		}
		if _, dup := p.pn.FlowConfig(spec.ID); dup {
			r.reject(h.Piconet, OpAddRoute, spec.ID, h.Slave,
				fmt.Sprintf("flow id %d already exists at %q", spec.ID, h.Piconet))
			return
		}
		prs[i] = p
	}
	admitted, i, err := admitHops(rt, rt.hops, prs)
	if err != nil {
		h := rt.hops[i]
		r.admissions = append(r.admissions, AdmissionRecord{
			At: r.s.Now(), Op: OpAddRoute, Piconet: h.Piconet,
			Flow: spec.ID, Slave: h.Slave, Route: spec.Name, Hop: i + 1,
			Reason: fmt.Sprintf("hop %d: %v", i+1, err),
		})
		return
	}
	r.routes = append(r.routes, rt)
	r.routeByID[spec.ID] = rt
	r.startRoute(rt, prs, admitted, OpAddRoute, func(p *piconetRunner, h routeHop) error {
		return p.installHop(rt, h)
	})
}

// admitHops runs the admission test at every hop of a route — hop i+1
// only after hop i passed — and on a refusal releases the hops admitted
// so far, so a route's reservations land whole or not at all. It returns
// the admitted plans, or the refused hop's index and error.
func admitHops(rt *routeState, hops []routeHop, prs []*piconetRunner) ([]*admission.PlannedFlow, int, error) {
	admitted := make([]*admission.PlannedFlow, len(hops))
	for i, h := range hops {
		pf, err := prs[i].ctrl.AdmitForDelay(prs[i].hopRequest(rt, h))
		if err != nil {
			for j := i - 1; j >= 0; j-- {
				_ = prs[j].ctrl.Remove(rt.spec.ID)
			}
			return nil, i, err
		}
		admitted[i] = pf
	}
	return admitted, 0, nil
}

// startRoute puts an admitted route into service: at every hop up
// installs or resumes the hop flow, the piconet re-plans and an op
// record logs the hop's contract; then the source starts in the first
// hop and every hop's master is kicked.
func (r *runner) startRoute(rt *routeState, prs []*piconetRunner, admitted []*admission.PlannedFlow,
	op string, up func(p *piconetRunner, h routeHop) error) {
	for i, h := range rt.hops {
		p := prs[i]
		if r.err = up(p, h); r.err == nil {
			r.err = p.replan()
		}
		if r.err != nil {
			return
		}
		p.accept(AdmissionRecord{
			Op: op, Flow: rt.spec.ID, Slave: h.Slave,
			Bound: admitted[i].Bound, Rate: admitted[i].Request.Rate,
			Route: rt.spec.Name, Hop: i + 1,
		})
	}
	prs[0].attachRouteSource(rt)
	for _, p := range prs {
		p.pn.Kick()
	}
}

// applyRemoveRoute retires a route end-to-end: the source stops, every
// hop's queue drops, and every hop's reservation is released.
func (r *runner) applyRemoveRoute(id piconet.FlowID) {
	rt := r.routeByID[id]
	if rt == nil {
		r.reject("", OpRemoveRoute, id, 0, "unknown route")
		return
	}
	if rt.retired {
		r.reject("", OpRemoveRoute, id, 0, "route already removed")
		return
	}
	rt.retired = true
	r.stopRoute(rt, AdmissionRecord{Op: OpRemoveRoute}, func(p *piconetRunner) error {
		if _, installed := p.pn.FlowConfig(id); installed {
			return p.pn.RetireFlow(id)
		}
		return nil
	})
}

// stopRoute takes a route down end to end: the source stops, and at
// every live hop halt retires or suspends the hop flow, its reservation
// is released and rec is logged for the hop. The in-flight origin FIFOs
// clear.
func (r *runner) stopRoute(rt *routeState, rec AdmissionRecord, halt func(p *piconetRunner) error) {
	id := rt.spec.ID
	for i, h := range rt.hops {
		p, _ := r.inService(h.Piconet)
		if p == nil {
			continue
		}
		if i == 0 {
			p.stopSource(id)
		}
		if r.err = halt(p); r.err == nil {
			r.err = p.release(id)
		}
		if r.err != nil {
			return
		}
		rec.Flow, rec.Slave, rec.Route, rec.Hop = id, h.Slave, rt.spec.Name, i+1
		p.accept(rec)
	}
	for i := range rt.origins {
		rt.origins[i] = nil
	}
}

// applyRenegotiate handles the renegotiate_flow timeline event: a healthy
// Guaranteed Service flow re-runs the admission test at a new delay target
// mid-run (tighter or looser). The negotiation is atomic — a refusal
// leaves the old contract untouched (see admission.Controller.Renegotiate).
// Route hop flows are refused: their targets follow from the route's
// end-to-end budget.
func (p *piconetRunner) applyRenegotiate(rn RenegotiateFlow) {
	r := p.r
	if rn.Target <= 0 {
		p.reject(OpRenegotiate, rn.Flow, 0, "non-positive delay target")
		return
	}
	if p.routeOf[rn.Flow] != nil {
		p.reject(OpRenegotiate, rn.Flow, 0, "flow belongs to a route; its target follows from the route budget")
		return
	}
	if _, installed := p.sources[rn.Flow]; !installed {
		p.reject(OpRenegotiate, rn.Flow, 0, "flow not installed")
		return
	}
	if _, isGS := p.ctrl.Find(rn.Flow); !isGS {
		p.reject(OpRenegotiate, rn.Flow, 0, "not a guaranteed flow")
		return
	}
	pf, err := p.ctrl.Renegotiate(rn.Flow, rn.Target)
	if err != nil {
		p.reject(OpRenegotiate, rn.Flow, 0, err.Error())
		return
	}
	if r.err = p.replan(); r.err != nil {
		return
	}
	p.accept(AdmissionRecord{
		Op: OpRenegotiate, Flow: rn.Flow, Slave: pf.Request.Slave,
		Bound: pf.Bound, Rate: pf.Request.Rate,
	})
}

// suspendRoute severs a route end-to-end: the source stops, every live
// hop's flow is suspended (queue flushed) and its reservation released,
// and the in-flight origin FIFOs clear. Used by the fault machinery when
// any hop's link dies or any traversed piconet crashes or leaves.
func (r *runner) suspendRoute(rt *routeState, fate string, latency time.Duration, reason string) {
	if rt.suspended || rt.retired {
		return
	}
	rt.suspended = true
	rt.fate = fate
	id := rt.spec.ID
	r.stopRoute(rt, AdmissionRecord{Op: OpSuspend, Latency: latency, Reason: reason}, func(p *piconetRunner) error {
		p.fates[id] = fate
		if _, installed := p.pn.FlowConfig(id); installed && !p.pn.FlowSuspended(id) {
			return p.pn.SuspendFlow(id)
		}
		return nil
	})
}

// onRouteLinkDead applies the recovery policy to routes severed by a
// supervision timeout at (p, slave): every route with a hop at that slave
// suspends end-to-end, then — under PolicyDegrade — renegotiates all hops
// at a degraded end-to-end budget when the declared fault window ends.
// Handoff does not compose with routes (their piconet membership is fixed
// by the bridge schedule), so that policy logs a rejection instead.
func (r *runner) onRouteLinkDead(p *piconetRunner, slave piconet.SlaveID, since, at sim.Time) {
	for _, rt := range r.routes {
		if rt.suspended || rt.retired {
			continue
		}
		idx, ok := rt.hopIndex(p.name)
		if !ok || rt.hops[idx].Slave != slave {
			continue
		}
		r.suspendRoute(rt, FateSuspended, at-since, "supervision timeout")
		if r.err != nil {
			return
		}
		switch r.spec.Recovery.Policy {
		case faults.PolicyDegrade:
			p.scheduleDegrade(rt.spec.ID, slave, func() { r.applyRouteDegrade(rt) })
		case faults.PolicyHandoff:
			r.reject(p.name, OpHandoff, rt.spec.ID, slave,
				"handoff of routed flows is not supported: the bridge schedule fixes their piconets")
		}
	}
}

// applyRouteDegrade renegotiates a suspended route at the degraded
// end-to-end budget (DegradeFactor × the route's budget): the new budget
// splits across the hops and every hop re-runs the admission test, atomic
// all-or-nothing like add_route. Success resumes every hop and restarts
// the source; a refusal leaves the route suspended.
func (r *runner) applyRouteDegrade(rt *routeState) {
	if r.err != nil || rt.retired || !rt.suspended || rt.fate != FateSuspended {
		return
	}
	degraded := rt.spec
	degraded.DelayTarget = time.Duration(float64(rt.spec.DelayTarget) * r.spec.Recovery.DegradeFactor)
	hops, err := r.spec.routeHops(degraded)
	if err != nil {
		r.reject("", OpDegrade, rt.spec.ID, 0, err.Error())
		return
	}
	id := rt.spec.ID
	prs := make([]*piconetRunner, len(hops))
	for i, h := range hops {
		if prs[i], _ = r.inService(h.Piconet); prs[i] == nil {
			r.reject(h.Piconet, OpDegrade, id, h.Slave, "piconet out of service")
			return
		}
	}
	admitted, i, err := admitHops(rt, hops, prs)
	if err != nil {
		r.reject(hops[i].Piconet, OpDegrade, id, hops[i].Slave, fmt.Sprintf("hop %d: %v", i+1, err))
		return
	}
	rt.hops = hops
	rt.spec.DelayTarget = degraded.DelayTarget
	rt.suspended = false
	rt.fate = FateDegraded
	r.startRoute(rt, prs, admitted, OpDegrade, func(p *piconetRunner, _ routeHop) error {
		p.fates[id] = FateDegraded
		return p.pn.ResumeFlow(id)
	})
}

// severRoutesThrough suspends every live route traversing the named
// piconet (a master crash or a remove_piconet breaks the path for good —
// no recovery policy can restore a piconet that no longer exists).
func (r *runner) severRoutesThrough(name, fate, reason string) {
	for _, rt := range r.routes {
		if rt.suspended || rt.retired {
			continue
		}
		if _, ok := rt.hopIndex(name); !ok {
			continue
		}
		r.suspendRoute(rt, fate, 0, reason)
		if r.err != nil {
			return
		}
	}
}

// collectRoutes assembles the end-to-end route results.
func (r *runner) collectRoutes(end sim.Time) []RouteResult {
	var out []RouteResult
	for _, rt := range r.routes {
		rr := RouteResult{
			ID:        rt.spec.ID,
			Name:      rt.spec.Name,
			Target:    rt.spec.DelayTarget,
			Offered:   rt.offered,
			Delivered: rt.delivered,
			Lost:      rt.lost,
			DelayMax:  rt.delay.Max(),
			DelayMean: rt.delay.Mean(),
			DelayP99:  rt.delay.Quantile(0.99),
			PeakQueue: rt.peakQueue,
			Fate:      rt.fate,
			Delay:     rt.delay,
		}
		if end > 0 {
			rr.Kbps = float64(rt.deliveredBytes) * 8 / 1000 / end.Seconds()
		}
		for _, h := range rt.hops {
			rr.Path = append(rr.Path, h.Piconet)
			if p, ok := r.byName[h.Piconet]; ok {
				rr.HopBounds = append(rr.HopBounds, p.bounds[rt.spec.ID])
				rr.HopRates = append(rr.HopRates, p.rates[rt.spec.ID])
			} else {
				rr.HopBounds = append(rr.HopBounds, 0)
				rr.HopRates = append(rr.HopRates, 0)
			}
		}
		out = append(out, rr)
	}
	return out
}
