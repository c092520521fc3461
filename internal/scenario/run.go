package scenario

import (
	"fmt"
	"sort"
	"time"

	"bluegs/internal/admission"
	"bluegs/internal/baseband"
	"bluegs/internal/core"
	"bluegs/internal/faults"
	"bluegs/internal/piconet"
	"bluegs/internal/radio"
	"bluegs/internal/sco"
	"bluegs/internal/sim"
	"bluegs/internal/traffic"
)

// runner holds the live state of one shard group of a scenario run: the
// group's kernel, its scatternet medium (when interference is enabled),
// its piconet engines in creation order, and its chronological online
// admission log. A flat spec runs as a scatternet of one.
type runner struct {
	spec Spec
	s    *sim.Simulator
	// medium couples the piconets through FH co-channel collisions; nil
	// when interference is disabled.
	medium *radio.Medium
	// pns lists every piconet ever created (including removed ones, for
	// reporting) in creation order; byName addresses the same engines
	// from timeline events.
	pns    []*piconetRunner
	byName map[string]*piconetRunner
	// fsched is the compiled fault plan: per-piconet link-outage oracles
	// and master-crash instants (empty, never nil, without faults).
	fsched *faults.Schedule
	// routes lists every route ever created (including retired ones, for
	// reporting) in creation order; routeByID addresses them from timeline
	// events and keeps retired ids claimed.
	routes    []*routeState
	routeByID map[piconet.FlowID]*routeState

	admissions []AdmissionRecord
	// err is the first fatal timeline-application error; it stops the
	// simulation and fails the run.
	err error
}

// piconetRunner is one piconet engine of the scatternet: its own polling
// scheduler and admission controller over the shared kernel clock, plus
// the cancellable traffic sources and the exported bound/rate bookkeeping
// behind its PiconetResult.
type piconetRunner struct {
	r    *runner
	name string

	pn    *piconet.Piconet
	sched *core.Scheduler
	ctrl  *admission.Controller
	// hop is the piconet's interference-wrapped channel model (nil when
	// the run has no medium).
	hop *radio.HopInterference

	// sources maps installed flows to their cancellable traffic sources;
	// a flow leaves the map when it is removed.
	sources map[piconet.FlowID]*source
	// bounds tracks, per GS flow, the loosest bound exported while the
	// flow was installed (see FlowResult.Bound); rates the admitted R.
	bounds map[piconet.FlowID]time.Duration
	rates  map[piconet.FlowID]float64
	// slaves tracks registered slaves across static setup and timeline.
	slaves map[piconet.SlaveID]bool
	// gsSpecs remembers every installed GS flow's declarative spec so the
	// recovery machinery can renegotiate or re-admit it elsewhere.
	gsSpecs map[piconet.FlowID]GSFlow
	// fates records what the fault/recovery machinery did to each flow
	// (see the Fate* constants; absent means untouched).
	fates map[piconet.FlowID]string
	// routeOf maps a hop flow's id to its route (nil-free for ordinary
	// flows): hop flows are installed by the route machinery and refuse
	// the per-flow operations (remove, move, renegotiate).
	routeOf map[piconet.FlowID]*routeState

	// removed marks a piconet that left the scatternet; crashed one whose
	// master crashed (unlike a removal, its flows are orphaned where they
	// stand: sources keep generating into queues nobody polls). Either way
	// its statistics are final as of outAt, the first exit.
	removed, crashed bool
	outAt            sim.Time
}

// source is one self-rescheduling traffic source; ev is its pending tick,
// cancelled when the flow is removed.
type source struct {
	ev sim.Event
}

// Run executes a scenario.
func Run(spec Spec) (*Result, error) { return RunWith(spec, Hooks{}) }

// RunWith executes a scenario with runtime hooks attached (a live tracer
// or a pre-built radio model instance). Hooked runs must not be served
// from a result cache: their side effects cannot be replayed. Every run
// goes through runShards, over the shard groups kernelShards derives
// from the spec alone, so a hooked run computes the same result as an
// unhooked one. A Tracer observes the first piconet only, and a live
// Radio instance is rejected in multi-piconet runs (one stateful model
// cannot serve N piconets).
func RunWith(spec Spec, hooks Hooks) (*Result, error) {
	if spec.AdmissionDerate < 0 || spec.AdmissionDerate >= 1 {
		return nil, fmt.Errorf("%w: AdmissionDerate %g outside [0,1)", ErrBadSpec, spec.AdmissionDerate)
	}
	if spec.flowCount() == 0 && len(spec.Routes) == 0 && len(spec.Timeline) == 0 {
		return nil, fmt.Errorf("%w: no flows", ErrBadSpec)
	}
	spec = spec.WithDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	piconets := spec.piconetSpecs()
	if hooks.Radio != nil && (len(piconets) > 1 || timelineAddsPiconet(spec)) {
		return nil, fmt.Errorf("%w: a live Radio hook cannot serve a multi-piconet run", ErrBadSpec)
	}

	// KernelWorkers is a pure execution knob: resolve it, then zero it so
	// neither the runners nor Result.Spec ever see a worker count (results
	// must compare byte-identical across worker counts and cache replays).
	workers := kernelWorkersFor(spec.KernelWorkers)
	spec.KernelWorkers = 0
	return runShards(spec, piconets, kernelShards(spec), hooks, workers)
}

// timelineAddsPiconet reports whether the timeline grows the scatternet.
func timelineAddsPiconet(spec Spec) bool {
	for _, ev := range spec.Timeline {
		if ev.AddPiconet != nil {
			return true
		}
	}
	return false
}

// successProb returns the admission derating input for a piconet
// co-located with others active piconets: 1 (no derating) when the knob
// is off or the run has no interference coupling, the static override
// when configured, and otherwise the conservative expected collision
// estimate for the current scatternet size.
func (r *runner) successProb(others int) float64 {
	if !r.spec.InterferenceAwareAdmission || r.medium == nil {
		return 1
	}
	if d := r.spec.AdmissionDerate; d > 0 && d < 1 {
		return d
	}
	return 1 - radio.ExpectedCollisionProb(others, r.medium.Channels())
}

// buildPiconet constructs one piconet engine — admission plan, piconet,
// scheduler and traffic sources — over the shared kernel. It is used both
// for the run-start piconets and for add_piconet timeline arrivals.
// others is the number of co-located piconets this one must expect to
// share the spectrum with (the derating input — run-start piconets pass
// the planned scatternet size, churn arrivals the current one).
func (r *runner) buildPiconet(ps PiconetSpec, hooks Hooks, others int) (*piconetRunner, error) {
	spec := r.spec
	p := &piconetRunner{
		r:       r,
		name:    ps.Name,
		sources: make(map[piconet.FlowID]*source),
		bounds:  make(map[piconet.FlowID]time.Duration),
		rates:   make(map[piconet.FlowID]float64),
		slaves:  make(map[piconet.SlaveID]bool),
		gsSpecs: make(map[piconet.FlowID]GSFlow),
		fates:   make(map[piconet.FlowID]string),
		routeOf: make(map[piconet.FlowID]*routeState),
	}
	hops := r.staticHopsAt(ps.Name)

	// Admission: the piconet-wide worst exchange must cover BE traffic,
	// including every flow the timeline may ever install here.
	admCfg := admission.Config{
		MaxExchange:    maxExchange(spec, ps),
		DirectionAware: spec.DirectionAware,
		SuccessProb:    r.successProb(others),
	}
	for _, l := range ps.SCO {
		ch, err := sco.NewChannel(l.Type)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		admCfg.SCOLinks = append(admCfg.SCOLinks, ch)
	}
	var admOpts []admission.ControllerOption
	if spec.WithoutPiggybacking {
		admOpts = append(admOpts, admission.WithoutPiggybacking())
	}
	var delayReqs []admission.DelayRequest
	for _, g := range ps.GS {
		delayReqs = append(delayReqs, spec.gsRequest(g, spec.DelayTarget))
	}
	// Route hops plan like run-start GS flows, each at its share of the
	// route's end-to-end budget and derated by its bridge's residency duty.
	for _, h := range hops {
		delayReqs = append(delayReqs, p.hopRequest(h.rt, h.rt.hops[h.idx]))
	}
	ctrl, err := admission.PlanForDelayBestEffort(delayReqs, admCfg, admOpts...)
	if err != nil {
		return nil, fmt.Errorf("scenario: admission: %w", err)
	}
	p.ctrl = ctrl

	// Piconet construction. The radio model is built fresh from the
	// declarative spec unless a live instance is hooked in; the medium
	// wraps it so the piconet both suffers and causes hop collisions.
	model := hooks.Radio
	if model == nil {
		if model, err = spec.Radio.Model(); err != nil {
			return nil, err
		}
	}
	if r.medium != nil {
		p.hop = r.medium.Attach(model)
		model = p.hop
	}
	// A build failure after this point must not leave the half-built
	// piconet interfering: a rejected add_piconet keeps the run going,
	// so an orphaned medium entry would shadow the scatternet forever.
	built := false
	defer func() {
		if !built && p.hop != nil {
			r.medium.Detach(p.hop)
		}
	}()
	pnOpts := []piconet.Option{piconet.WithRadio(model)}
	if spec.ARQ {
		pnOpts = append(pnOpts, piconet.WithARQ(true))
	}
	if hooks.Tracer != nil {
		pnOpts = append(pnOpts, piconet.WithTracer(hooks.Tracer))
	}
	// Fault plan: the compiled per-slave outage oracle gates this
	// piconet's radio (a piconet with no declared faults gets no oracle,
	// keeping the engine's delivery path — and its RNG draws — untouched).
	// Bridge residency composes into the same gate: a poll to a bridge
	// outside its window fails exactly like a declared outage, with zero
	// RNG draws either way.
	gate, reach := r.residencyFor(ps.Name)
	pf := r.fsched.Piconet(ps.Name)
	switch {
	case pf != nil && gate != nil:
		down := pf.Down
		pnOpts = append(pnOpts, piconet.WithLinkFault(func(s piconet.SlaveID, now sim.Time) bool {
			return down(s, now) || gate(s, now)
		}))
	case pf != nil:
		pnOpts = append(pnOpts, piconet.WithLinkFault(pf.Down))
	case gate != nil:
		pnOpts = append(pnOpts, piconet.WithLinkFault(gate))
	}
	if spec.usesRoutes() {
		// The delivery hook drives the bridges' store-and-forward handoff;
		// it is installed only when routes exist so route-free runs keep
		// the exact pre-bridge delivery path.
		pnOpts = append(pnOpts, piconet.WithDeliveryHook(func(flow piconet.FlowID, size int, at sim.Time, delivered bool) {
			r.onHopComplete(p, flow, size, at, delivered)
		}))
	}
	if spec.Recovery.Supervision > 0 {
		pnOpts = append(pnOpts, piconet.WithSupervision(spec.Recovery.Supervision, p.onLinkDead))
	}
	pn := piconet.New(r.s, pnOpts...)
	p.pn = pn
	for _, g := range ps.GS {
		if err := p.installFlow(spec.gsConfig(g)); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		p.gsSpecs[g.ID] = g
	}
	for _, h := range hops {
		if err := p.installHop(h.rt, h.rt.hops[h.idx]); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	for _, b := range ps.BE {
		if err := p.installFlow(spec.beConfig(b)); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	for _, l := range ps.SCO {
		if err := p.addSlave(l.Slave); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		if err := pn.AddSCOLink(l.Slave, l.Type); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}

	// Scheduler. Every piconet gets its own best-effort poller instance:
	// poller state (PFP predictions, RR cursors) must not leak across
	// piconets.
	bePoller, err := NewBEPoller(spec.BEPoller)
	if err != nil {
		return nil, err
	}
	coreOpts := []core.Option{
		core.WithMode(spec.Mode),
		core.WithBEPoller(bePoller),
		core.WithLossRecovery(spec.LossRecovery),
	}
	if spec.RulesSet {
		coreOpts = append(coreOpts, core.WithImprovements(spec.Rules))
	}
	if reach != nil {
		// The scheduler plans around the residency windows: polls to an
		// absent bridge defer to its window-open instant instead of burning
		// failed exchanges.
		coreOpts = append(coreOpts, core.WithResidency(reach))
	}
	sched, err := core.New(pn, ctrl.Flows(), coreOpts...)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	pn.SetScheduler(sched)
	p.sched = sched
	p.noteBounds()

	// Traffic sources. A route's source lives in its first-hop piconet.
	for _, g := range ps.GS {
		p.attachGSSource(g)
	}
	for _, b := range ps.BE {
		p.attachBESource(b)
	}
	for _, h := range hops {
		if h.idx == 0 {
			p.attachRouteSource(h.rt)
		}
	}

	built = true
	r.pns = append(r.pns, p)
	r.byName[p.name] = p
	return p, nil
}

// allowedFor resolves a flow's baseband type set against the spec default.
func (s Spec) allowedFor(override baseband.TypeSet) baseband.TypeSet {
	if !override.Empty() {
		return override
	}
	return s.Allowed
}

// gsRequest is a GS flow's admission request at the given delay target.
func (s Spec) gsRequest(g GSFlow, target time.Duration) admission.DelayRequest {
	return admission.DelayRequest{
		Request: admission.Request{
			ID: g.ID, Slave: g.Slave, Dir: g.Dir, Spec: g.Spec(), Allowed: s.allowedFor(g.Allowed),
		},
		Target: target,
	}
}

// gsConfig and beConfig are the piconet engine's view of a flow.
func (s Spec) gsConfig(g GSFlow) piconet.FlowConfig {
	return piconet.FlowConfig{ID: g.ID, Slave: g.Slave, Dir: g.Dir,
		Class: piconet.Guaranteed, Allowed: s.allowedFor(g.Allowed)}
}

func (s Spec) beConfig(b BEFlow) piconet.FlowConfig {
	return piconet.FlowConfig{ID: b.ID, Slave: b.Slave, Dir: b.Dir,
		Class: piconet.BestEffort, Allowed: s.allowedFor(b.Allowed)}
}

// addSlave registers a slave once across static setup and timeline.
func (p *piconetRunner) addSlave(id piconet.SlaveID) error {
	if p.slaves[id] {
		return nil
	}
	p.slaves[id] = true
	return p.pn.AddSlave(id)
}

// installFlow registers a flow, and its slave once, with the piconet
// engine.
func (p *piconetRunner) installFlow(cfg piconet.FlowConfig) error {
	if err := p.addSlave(cfg.Slave); err != nil {
		return err
	}
	return p.pn.AddFlow(cfg)
}

// live reports whether the piconet's master still polls.
func (p *piconetRunner) live() bool { return !p.removed && !p.crashed }

// inService resolves a piconet an operation needs a live master in, or
// returns nil and the reason it cannot run there.
func (r *runner) inService(name string) (*piconetRunner, string) {
	p, ok := r.byName[name]
	switch {
	case !ok:
		return nil, "unknown piconet"
	case p.removed:
		return nil, "piconet removed"
	case p.crashed:
		return nil, "piconet crashed"
	}
	return p, ""
}

// replan re-plans the scheduler on the controller's current flow set and
// folds the new plan into the exported bounds.
func (p *piconetRunner) replan() error {
	if err := p.sched.Replan(p.ctrl.Flows()); err != nil {
		return err
	}
	p.noteBounds()
	return nil
}

// release returns a flow's reservation to the admission controller and
// re-plans; a flow the controller does not hold (best effort, or already
// released) leaves the plan as it is.
func (p *piconetRunner) release(id piconet.FlowID) error {
	if _, isGS := p.ctrl.Find(id); !isGS {
		return nil
	}
	if err := p.ctrl.Remove(id); err != nil {
		return err
	}
	return p.replan()
}

// stopSource cancels a flow's traffic source, reporting whether it had
// one.
func (p *piconetRunner) stopSource(id piconet.FlowID) bool {
	src, ok := p.sources[id]
	if ok {
		p.r.s.Cancel(src.ev)
		delete(p.sources, id)
	}
	return ok
}

// noteBounds folds the controller's current plan into the exported
// bound/rate bookkeeping: per flow the loosest bound ever in force (later
// admissions can shift priorities and grow x, weakening earlier promises)
// and the admitted rate.
func (p *piconetRunner) noteBounds() {
	for _, pf := range p.ctrl.Flows() {
		id := pf.Request.ID
		if pf.Bound > p.bounds[id] {
			p.bounds[id] = pf.Bound
		}
		p.rates[id] = pf.Request.Rate
	}
}

// attachGSSource starts a Guaranteed Service flow's CBR source.
func (p *piconetRunner) attachGSSource(g GSFlow) {
	p.attachSource(g.ID, traffic.CBR{Interval: g.Interval},
		traffic.UniformSize{Min: g.MinSize, Max: g.MaxSize}, g.Phase, nil)
}

// attachBESource starts a best-effort flow's CBR source.
func (p *piconetRunner) attachBESource(b BEFlow) {
	gen := traffic.CBRForRate(b.RateKbps*1000, b.PacketSize)
	p.attachSource(b.ID, gen, traffic.UniformSize{Min: b.PacketSize, Max: b.PacketSize}, b.Phase, nil)
}

// attachRouteSource starts a route's CBR source in its first-hop
// piconet: it draws like a GS flow's, and each arrival also enters the
// route's bookkeeping (routeState.arrive).
func (p *piconetRunner) attachRouteSource(rt *routeState) {
	g := rt.spec
	p.attachSource(g.ID, traffic.CBR{Interval: g.Interval},
		traffic.UniformSize{Min: g.MinSize, Max: g.MaxSize}, g.Phase, rt)
}

// maxReserve caps the delays a sample reserves when its source attaches
// (8 MiB), so an absurd horizon cannot reserve gigabytes up front; a
// flow that delivers more grows its sample by append past it.
const maxReserve = 1 << 20

// offerable returns how many arrivals a CBR source attached at now in
// the named piconet can still offer: the instants now+phase+k·interval
// up to the horizon, which Run executes, or up to the first timeline
// event at or after now that stops the source, capped at maxReserve. For
// a plain flow that event is its remove_flow or move_flow, or the removal
// of its piconet; for a route's source (rt set) the route's
// remove_route, or the removal of any piconet it runs through. An event
// the run then refuses only makes the count short.
func (s Spec) offerable(pn string, flow piconet.FlowID, rt *routeState, now, phase, interval time.Duration) int {
	end := s.Duration
	for _, ev := range s.Timeline {
		if ev.At < now || ev.At >= end {
			continue
		}
		var stops bool
		switch {
		case ev.RemovePiconet != "" && rt != nil:
			_, stops = rt.hopIndex(ev.RemovePiconet)
		case ev.RemovePiconet != "":
			stops = ev.RemovePiconet == pn
		case rt != nil:
			stops = ev.RemoveRoute == flow
		default:
			stops = ev.Piconet == pn && (ev.Remove == flow || ev.Move != nil && ev.Move.Flow == flow)
		}
		if stops {
			end = ev.At
		}
	}
	first := now + phase
	if first > end {
		return 0
	}
	return int(min((end-first)/interval+1, maxReserve))
}

// maxBurst bounds a batched source's pre-enqueued arrivals per kernel
// event.
const maxBurst = 64

// batchWindow bounds how far ahead of the kernel clock a batched source
// pre-enqueues arrivals: half the timing wheel's 640 ms span, so the
// future-dated arrival events (and a down flow's arrival notifications)
// stay on the O(1) wheel instead of spilling into the overflow heap, and
// queues stay shallow enough for the per-run packet pool to recycle.
const batchWindow = 320 * time.Millisecond

// attachSource schedules a self-rescheduling traffic source whose pending
// tick stays cancellable (flow removal stops the source). rt, when set,
// is the route the source feeds: each arrival runs rt.arrive before its
// packet is enqueued, and such a source never batches. Otherwise, with
// Spec.BatchTraffic, sources pre-enqueue one burst of future-dated
// arrivals per kernel event (see piconet.EnqueuePacketAt) instead of one
// event per packet; a down flow's pre-enqueued arrivals notify the
// master at their arrival instants, so its arrival knowledge is
// untouched. The flow's delay sample, and the route's, reserve room for
// every arrival the source can still offer (Spec.offerable), so each is
// allocated once instead of regrown.
func (p *piconetRunner) attachSource(flow piconet.FlowID, gen traffic.CBR, sizes traffic.UniformSize,
	phase time.Duration, rt *routeState) {
	if phase < 0 {
		phase = 0
	}
	r := p.r
	n := r.spec.offerable(p.name, flow, rt, r.s.Now(), phase, gen.NextInterval())
	if delay, ok := p.pn.FlowDelayStats(flow); ok {
		delay.Grow(n)
	}
	if rt != nil {
		rt.delay.Grow(n)
	} else if r.spec.BatchTraffic {
		p.attachBurstSource(flow, gen, sizes, phase)
		return
	}
	src := &source{}
	var tick func()
	tick = func() {
		if rt != nil {
			rt.arrive(r.s.Now())
		}
		_ = p.pn.EnqueuePacket(flow, sizes.Draw(r.s.Rand()))
		src.ev = r.s.After(gen.NextInterval(), tick)
	}
	src.ev = r.s.Schedule(r.s.Now()+phase, tick)
	p.sources[flow] = src
}

// attachBurstSource is the batched form of attachSource: each tick
// enqueues the packet arriving now, pre-enqueues up to a burst of further
// arrivals as future-dated packets, and reschedules itself at the first
// arrival it did not pre-enqueue. The loop stops at whichever comes first
// of the burst cap, the horizon, or batchWindow ahead of the clock — so
// the source draws exactly the packet sizes it uses and never floods the
// kernel with arrivals parked seconds in the future.
func (p *piconetRunner) attachBurstSource(flow piconet.FlowID, gen traffic.CBR,
	sizes traffic.UniformSize, phase time.Duration) {
	r := p.r
	horizon := r.spec.Duration
	src := &source{}
	var tick func()
	tick = func() {
		now := r.s.Now()
		_ = p.pn.EnqueuePacketAt(flow, sizes.Draw(r.s.Rand()), now)
		at := now
		for n := 1; ; n++ {
			at += gen.NextInterval()
			if n >= maxBurst || at > horizon || at > now+batchWindow {
				break
			}
			_ = p.pn.EnqueuePacketAt(flow, sizes.Draw(r.s.Rand()), at)
		}
		// The first arrival past the cutoff is the next tick: it enqueues
		// its own packet when it fires and continues the burst.
		src.ev = r.s.Schedule(at, tick)
	}
	src.ev = r.s.Schedule(r.s.Now()+phase, tick)
	p.sources[flow] = src
}

// maxExchange derives one piconet's worst ongoing ACL exchange Xi from
// the actual flow layout — including every flow the timeline may ever
// install there — as, per slave, the largest downlink leg plus the
// largest uplink leg (POLL/NULL legs count one slot). With DirectionAware
// disabled the paper's conservative assumption applies: any flow's
// exchange may carry maximal segments both ways.
func maxExchange(spec Spec, ps PiconetSpec) time.Duration {
	type legs struct{ down, up int }
	perSlave := map[piconet.SlaveID]*legs{}
	visit := func(slave piconet.SlaveID, dir piconet.Direction, allowed baseband.TypeSet, conservative bool) {
		l := perSlave[slave]
		if l == nil {
			l = &legs{down: 1, up: 1}
			perSlave[slave] = l
		}
		// Conservatively, both legs may carry maximal segments (paper
		// default).
		slots := allowed.MaxSlots()
		if conservative || dir == piconet.Down {
			l.down = max(l.down, slots)
		}
		if conservative || dir == piconet.Up {
			l.up = max(l.up, slots)
		}
	}
	visitGS := func(g GSFlow) {
		visit(g.Slave, g.Dir, spec.allowedFor(g.Allowed), !spec.DirectionAware)
	}
	visitBE := func(b BEFlow) {
		// Best-effort exchanges serve whatever is queued each way, so
		// the legs are direction-specific regardless of the admission
		// mode.
		visit(b.Slave, b.Dir, spec.allowedFor(b.Allowed), false)
	}
	for _, g := range ps.GS {
		visitGS(g)
	}
	for _, b := range ps.BE {
		visitBE(b)
	}
	// Route hops hosted here count like GS flows of their endpoint.
	visitRoute := func(rt RouteSpec) {
		hops, err := spec.routeHops(rt)
		if err != nil {
			return // validation rejects the spec before Xi matters
		}
		for _, h := range hops {
			if h.Piconet == ps.Name {
				visit(h.Slave, h.Dir, spec.allowedFor(rt.Allowed), !spec.DirectionAware)
			}
		}
	}
	for _, rt := range spec.Routes {
		visitRoute(rt)
	}
	for _, ev := range spec.Timeline {
		// Timeline arrivals targeting this piconet are folded in
		// conservatively: Xi must cover any exchange that can occur at
		// any point of the run. Timeline routes are scatternet-level: any
		// of their hops may land here regardless of the event's (ignored)
		// piconet address. A move_flow whose destination is (or may be)
		// this piconet brings the moved flow's exchange here.
		if ev.AddRoute != nil {
			visitRoute(*ev.AddRoute)
			continue
		}
		if ev.Move != nil && ev.Piconet != ps.Name {
			if ev.Move.To == ps.Name || ev.Move.To == "" {
				if g, ok := spec.findGS(ev.Piconet, ev.Move.Flow); ok {
					visitGS(g)
				}
			}
			continue
		}
		if ev.Piconet != ps.Name {
			continue
		}
		if ev.AddGS != nil {
			visitGS(*ev.AddGS)
		}
		if ev.AddBE != nil {
			visitBE(*ev.AddBE)
		}
	}
	if spec.Recovery.Policy == faults.PolicyHandoff {
		// The handoff recovery policy can move any GS flow of any piconet
		// here; Xi must cover every exchange it might ever host.
		for _, g := range spec.declaredGS {
			visitGS(g)
		}
	}
	maxSlots := 2
	for _, l := range perSlave {
		if s := l.down + l.up; s > maxSlots {
			maxSlots = s
		}
	}
	return baseband.SlotsToDuration(maxSlots)
}

// declaredGS visits every GS flow the spec declares, with the piconet
// declaring it: the static sets, then every timeline add_gs and
// add_piconet in order. Range over it; break stops the walk.
func (s Spec) declaredGS(yield func(pn string, g GSFlow) bool) {
	for _, ps := range s.piconetSpecs() {
		for _, g := range ps.GS {
			if !yield(ps.Name, g) {
				return
			}
		}
	}
	for _, ev := range s.Timeline {
		if ev.AddGS != nil && !yield(ev.Piconet, *ev.AddGS) {
			return
		}
		if ev.AddPiconet != nil {
			for _, g := range ev.AddPiconet.GS {
				if !yield(ev.AddPiconet.Name, g) {
					return
				}
			}
		}
	}
}

// findGS locates the declarative spec of a GS flow by (piconet, id)
// among the declared flows and — for chained handoffs — the moves that
// brought the flow there (move validation forbids cycles, so the
// recursion terminates).
func (s Spec) findGS(pnName string, id piconet.FlowID) (GSFlow, bool) {
	for pn, g := range s.declaredGS {
		if pn == pnName && g.ID == id {
			return g, true
		}
	}
	for _, ev := range s.Timeline {
		if ev.Move != nil && ev.Move.Flow == id && ev.Move.To == pnName {
			if g, ok := s.findGS(ev.Piconet, id); ok {
				return g, true
			}
		}
	}
	return GSFlow{}, false
}

// reject logs a refused timeline operation.
func (r *runner) reject(pnName, op string, flow piconet.FlowID, slave piconet.SlaveID, reason string) {
	r.admissions = append(r.admissions, AdmissionRecord{
		At: r.s.Now(), Op: op, Piconet: pnName, Flow: flow, Slave: slave, Reason: reason,
	})
}

// accept logs an applied timeline operation.
func (r *runner) accept(rec AdmissionRecord) {
	rec.At = r.s.Now()
	rec.Accepted = true
	r.admissions = append(r.admissions, rec)
}

func (p *piconetRunner) reject(op string, flow piconet.FlowID, slave piconet.SlaveID, reason string) {
	p.r.reject(p.name, op, flow, slave, reason)
}

func (p *piconetRunner) accept(rec AdmissionRecord) {
	rec.Piconet = p.name
	p.r.accept(rec)
}

// applyEvent dispatches one timeline event at its simulated time. Spec
// errors (which static validation should have caught) are fatal: they
// stop the simulation and fail the run. Admission refusals — including a
// flow aimed at a piconet that already left — are recorded outcomes, not
// errors.
func (r *runner) applyEvent(ev TimelineEvent) {
	if r.err != nil {
		return
	}
	switch {
	case ev.AddPiconet != nil:
		r.applyAddPiconet(*ev.AddPiconet)
	case ev.RemovePiconet != "":
		r.applyRemovePiconet(ev.RemovePiconet)
	case ev.AddRoute != nil:
		r.applyAddRoute(*ev.AddRoute)
	case ev.RemoveRoute != piconet.None:
		r.applyRemoveRoute(ev.RemoveRoute)
	default:
		if p, why := r.inService(ev.Piconet); p != nil {
			p.applyEvent(ev)
		} else {
			flow, slave := ev.subject()
			r.reject(ev.Piconet, ev.Op(), flow, slave, why)
		}
	}
	if r.err != nil {
		r.s.Stop()
	}
}

// applyEvent dispatches a flow or SCO operation on one piconet.
func (p *piconetRunner) applyEvent(ev TimelineEvent) {
	switch {
	case ev.AddGS != nil:
		p.applyAddGS(*ev.AddGS)
	case ev.AddBE != nil:
		p.applyAddBE(*ev.AddBE)
	case ev.Remove != piconet.None:
		p.applyRemove(ev.Remove)
	case ev.AddSCO != nil:
		p.applyAddSCO(*ev.AddSCO)
	case ev.DropSCO != 0:
		p.applyDropSCO(ev.DropSCO)
	case ev.Move != nil:
		p.applyMove(*ev.Move)
	case ev.Renegotiate != nil:
		p.applyRenegotiate(*ev.Renegotiate)
	}
}

// applyAddPiconet brings a new piconet into the scatternet: its static GS
// set is planned offline (clamped, like a run-start plan), its master
// starts polling at the next opportunity, and its name becomes a timeline
// target. Build errors are recorded as rejections — the scatternet keeps
// running.
func (r *runner) applyAddPiconet(ps PiconetSpec) {
	if _, dup := r.byName[ps.Name]; dup {
		r.reject(ps.Name, OpAddPiconet, 0, 0, "piconet name already used")
		return
	}
	others := 0
	if r.medium != nil {
		// Every piconet active right now will interfere with the
		// newcomer (it attaches during the build, after this count).
		others = r.medium.ActivePiconets()
	}
	p, err := r.buildPiconet(ps, Hooks{}, others)
	if err != nil {
		r.reject(ps.Name, OpAddPiconet, 0, 0, err.Error())
		return
	}
	if r.err = p.pn.Start(); r.err != nil {
		return
	}
	r.accept(AdmissionRecord{Op: OpAddPiconet, Piconet: ps.Name})
	r.rederate(p)
}

// applyRemovePiconet retires a whole piconet: every source stops, and
// packets pre-enqueued for later instants are dropped before the piconet
// is taken out of service.
func (r *runner) applyRemovePiconet(name string) {
	p, ok := r.byName[name]
	if !ok {
		r.reject(name, OpRemovePiconet, 0, 0, "unknown piconet")
		return
	}
	if p.removed {
		r.reject(name, OpRemovePiconet, 0, 0, "piconet removed")
		return
	}
	// Cancel sources in flow-id order: deterministic regardless of map
	// iteration.
	ids := make([]piconet.FlowID, 0, len(p.sources))
	for id := range p.sources {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p.stopSource(id)
	}
	// Batched sources pre-enqueue future arrivals; packets stamped after
	// the removal never happen and must not stay counted as offered.
	p.pn.PruneFutureArrivals(r.s.Now())
	r.takeOut(p, OpRemovePiconet, FateSuspended, fmt.Sprintf("piconet %q removed", name))
}

// takeOut is the one exit of a piconet, by OpRemovePiconet or OpCrash:
// the master polls no more, its airtime stops colliding with the
// survivors, it is marked removed or crashed with its statistics frozen
// at its first exit, the exit is logged, every route through it is
// severed for good with fate, and the survivors re-derate. The mark
// precedes the severing and the re-derating, which must see the piconet
// out of service.
func (r *runner) takeOut(p *piconetRunner, op, fate, reason string) {
	p.pn.Stop()
	r.medium.Detach(p.hop) // a no-op without a medium: p.hop is nil
	if p.live() {
		p.outAt = r.s.Now()
	}
	if op == OpCrash {
		p.crashed = true
	} else {
		p.removed = true
	}
	r.accept(AdmissionRecord{Op: op, Piconet: p.name})
	r.severRoutesThrough(p.name, fate, reason)
	r.rederate(nil)
}

// rederate re-evaluates the interference derating of every surviving
// piconet after the scatternet changed size: a join tightens the
// collision estimate (bounds loosen), a leave relaxes it (bounds
// tighten). skip is the piconet that just joined — it planned against
// the new size already. A piconet whose existing contracts cannot absorb
// the new estimate keeps its previous derate and logs a rejected
// rederate record; unchanged estimates (the static override, or a
// no-interference run) log nothing.
func (r *runner) rederate(skip *piconetRunner) {
	if !r.spec.InterferenceAwareAdmission || r.medium == nil {
		return
	}
	for _, p := range r.pns {
		if p.removed || p == skip {
			continue
		}
		s := r.successProb(r.medium.ActivePiconets() - 1)
		if s == p.ctrl.SuccessProb() {
			continue
		}
		if err := p.ctrl.SetSuccessProb(s); err != nil {
			p.reject(OpRederate, 0, 0, err.Error())
			continue
		}
		if r.err = p.replan(); r.err != nil {
			return
		}
		p.accept(AdmissionRecord{Op: OpRederate})
	}
}

// applyAddGS runs the paper's online admission test for a mid-run GS
// arrival and installs the flow on success.
func (p *piconetRunner) applyAddGS(g GSFlow) {
	pf, err := p.ctrl.AdmitForDelay(p.r.spec.gsRequest(g, p.r.spec.DelayTarget))
	if err != nil {
		p.reject(OpAddGS, g.ID, g.Slave, err.Error())
		return
	}
	if p.r.err = p.startGS(g); p.r.err != nil {
		return
	}
	p.accept(AdmissionRecord{
		Op: OpAddGS, Flow: g.ID, Slave: g.Slave,
		Bound: pf.Bound, Rate: pf.Request.Rate,
	})
}

// startGS puts an admitted GS flow into service: installed, re-planned,
// its source started and the master kicked.
func (p *piconetRunner) startGS(g GSFlow) error {
	if err := p.installFlow(p.r.spec.gsConfig(g)); err != nil {
		return err
	}
	if err := p.replan(); err != nil {
		return err
	}
	p.gsSpecs[g.ID] = g
	p.attachGSSource(g)
	p.pn.Kick()
	return nil
}

// applyAddBE installs a mid-run best-effort arrival (no admission test).
func (p *piconetRunner) applyAddBE(b BEFlow) {
	if p.r.err = p.installFlow(p.r.spec.beConfig(b)); p.r.err != nil {
		return
	}
	p.sched.RefreshBE()
	p.attachBESource(b)
	p.pn.Kick()
	p.accept(AdmissionRecord{Op: OpAddBE, Flow: b.ID, Slave: b.Slave})
}

// applyRemove retires a flow: its source stops, queued packets drop, and
// a Guaranteed Service flow's bandwidth is released by re-planning.
func (p *piconetRunner) applyRemove(id piconet.FlowID) {
	r := p.r
	if p.routeOf[id] != nil {
		p.reject(OpRemoveFlow, id, 0, "flow belongs to a route; use remove_route")
		return
	}
	if !p.stopSource(id) {
		// The flow's admission was rejected (or it was already
		// removed): the departure has nothing to retire.
		p.reject(OpRemoveFlow, id, 0, "flow not installed")
		return
	}
	cfg, _ := p.pn.FlowConfig(id)
	if r.err = p.pn.RetireFlow(id); r.err != nil {
		return
	}
	if _, isGS := p.ctrl.Find(id); !isGS {
		p.sched.RefreshBE()
	} else if r.err = p.release(id); r.err != nil {
		return
	}
	p.accept(AdmissionRecord{Op: OpRemoveFlow, Flow: id, Slave: cfg.Slave})
}

// applyAddSCO reserves a mid-run voice link if both the piconet's SCO
// capacity and the admitted Guaranteed Service contracts allow it. Every
// check runs before any state changes, so a refused call leaves no trace
// (no phantom slave registration, no half-installed reservation).
func (p *piconetRunner) applyAddSCO(l SCOLinkSpec) {
	r := p.r
	ch, err := sco.NewChannel(l.Type)
	if err != nil {
		p.reject(OpAddSCO, 0, l.Slave, err.Error())
		return
	}
	if err := p.pn.CheckSCOLink(l.Slave, l.Type); err != nil {
		p.reject(OpAddSCO, 0, l.Slave, err.Error())
		return
	}
	if err := p.ctrl.SetSCOLinks(append(p.ctrl.SCOLinks(), ch)); err != nil {
		// The GS set no longer fits around the reservations: the call
		// is refused (SetSCOLinks left the controller unchanged).
		p.reject(OpAddSCO, 0, l.Slave, err.Error())
		return
	}
	if r.err = p.addSlave(l.Slave); r.err != nil {
		return
	}
	if r.err = p.pn.AddSCOLink(l.Slave, l.Type); r.err != nil {
		return
	}
	if r.err = p.replan(); r.err != nil {
		return
	}
	p.accept(AdmissionRecord{Op: OpAddSCO, Slave: l.Slave})
}

// applyDropSCO releases a voice link and the admission headroom it held.
func (p *piconetRunner) applyDropSCO(slave piconet.SlaveID) {
	r := p.r
	if err := p.pn.DropSCOLink(slave); err != nil {
		p.reject(OpDropSCO, 0, slave, err.Error())
		return
	}
	links := p.ctrl.SCOLinks()
	if len(links) > 0 {
		// Links are interchangeable at the admission level (one
		// aggregate stream of count×type): release any one.
		if r.err = p.ctrl.SetSCOLinks(links[:len(links)-1]); r.err != nil {
			return
		}
		if r.err = p.replan(); r.err != nil {
			return
		}
	}
	p.accept(AdmissionRecord{Op: OpDropSCO, Slave: slave})
}

// collect assembles one piconet's result. end is the measurement horizon:
// the run's end, or the removal instant for piconets that left early.
func (p *piconetRunner) collect(end sim.Time) PiconetResult {
	if !p.live() {
		end = p.outAt
	}
	pn := p.pn
	pr := PiconetResult{
		Name:       p.name,
		Removed:    p.removed,
		Crashed:    p.crashed,
		SlaveKbps:  make(map[piconet.SlaveID]float64),
		SCOKbps:    make(map[piconet.SlaveID]float64),
		Slots:      pn.SlotAccount(end),
		GSPolls:    p.sched.GSPolls(),
		BEPolls:    p.sched.BEPolls(),
		Skipped:    p.sched.SkippedPolls(),
		Admitted:   p.ctrl.Flows(),
		Admissions: p.admissionSlice(),
	}
	if p.hop != nil {
		pr.Utilization = p.hop.Utilization(end)
	}
	for _, id := range pn.Flows() {
		cfg, _ := pn.FlowConfig(id)
		delay, _ := pn.FlowDelayStats(id)
		delivered, _ := pn.FlowDelivered(id)
		offered, _ := pn.FlowOffered(id)
		lost, _ := pn.FlowLost(id)
		fr := FlowResult{
			ID:          id,
			Piconet:     p.name,
			Slave:       cfg.Slave,
			Dir:         cfg.Dir,
			Class:       cfg.Class,
			Offered:     offered.Packets(),
			Delivered:   delivered.Packets(),
			Lost:        lost.Packets(),
			Kbps:        delivered.Kbps(end),
			DelayMax:    delay.Max(),
			DelayMean:   delay.Mean(),
			DelayP99:    delay.Quantile(0.99),
			DelayJitter: delay.StdDev(),
			Delay:       delay,
			Bound:       p.bounds[id], // zero for best-effort flows
			Rate:        p.rates[id],
			Fate:        p.fates[id],
		}
		if rt := p.routeOf[id]; rt != nil {
			fr.Route = rt.spec.Name
		}
		pr.Flows = append(pr.Flows, fr)
	}
	for _, slave := range pn.Slaves() {
		pr.SlaveKbps[slave] = pn.SlaveThroughputKbps(slave, end)
		if down, up, ok := pn.SCOMeters(slave); ok {
			pr.SCOKbps[slave] = down.Kbps(end) + up.Kbps(end)
		}
	}
	return pr
}

// admissionSlice filters the run's chronological admission log down to
// this piconet's records.
func (p *piconetRunner) admissionSlice() []AdmissionRecord {
	var out []AdmissionRecord
	for _, rec := range p.r.admissions {
		if rec.Piconet == p.name {
			out = append(out, rec)
		}
	}
	return out
}

// Rollup derives the scatternet-wide aggregate fields (Flows, SlaveKbps,
// SCOKbps, Slots, the poll counters and Admitted) from the per-piconet
// results already in res. A single-piconet run's rollup is its piconet's
// result verbatim (byte-identical to the pre-scatternet runner), sharing
// its Flows. Shared by the runner's merge and by the run cache, which
// stores only Piconets and rolls up on decode, so the aggregation
// arithmetic cannot drift between them.
func Rollup(res *Result) {
	if len(res.Piconets) == 1 {
		pr := res.Piconets[0]
		res.Flows = pr.Flows
		res.SlaveKbps = pr.SlaveKbps
		res.SCOKbps = pr.SCOKbps
		res.Slots = pr.Slots
		res.GSPolls, res.BEPolls, res.Skipped = pr.GSPolls, pr.BEPolls, pr.Skipped
		res.Admitted = pr.Admitted
		return
	}
	res.SlaveKbps = make(map[piconet.SlaveID]float64)
	res.SCOKbps = make(map[piconet.SlaveID]float64)
	for _, pr := range res.Piconets {
		res.Flows = append(res.Flows, pr.Flows...)
		for slave, kbps := range pr.SlaveKbps {
			res.SlaveKbps[slave] += kbps
		}
		for slave, kbps := range pr.SCOKbps {
			res.SCOKbps[slave] += kbps
		}
		res.Slots = addSlots(res.Slots, pr.Slots)
		res.GSPolls += pr.GSPolls
		res.BEPolls += pr.BEPolls
		res.Skipped += pr.Skipped
		res.Admitted = append(res.Admitted, pr.Admitted...)
	}
}

// addSlots sums two slot accounts field by field (the scatternet rollup:
// N piconets occupy N channels' worth of slots).
func addSlots(a, b piconet.SlotAccount) piconet.SlotAccount {
	a.GSData += b.GSData
	a.GSOverhead += b.GSOverhead
	a.BEData += b.BEData
	a.BEOverhead += b.BEOverhead
	a.Retransmit += b.Retransmit
	a.SCO += b.SCO
	a.Idle += b.Idle
	a.Total += b.Total
	return a
}
