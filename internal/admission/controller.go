package admission

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"time"

	"bluegs/internal/gs"
	"bluegs/internal/piconet"
	"bluegs/internal/sco"
)

// PlannedFlow is an admitted flow together with its polling plan and
// Guaranteed Service export.
type PlannedFlow struct {
	// Request is the admitted request.
	Request Request
	// Params are the derived polling parameters.
	Params Params
	// Priority is the flow's poll priority; 1 is highest. A piggybacked
	// pair shares one priority.
	Priority int
	// X is the worst-case lag between a planned poll and its execution
	// (paper Fig. 2).
	X time.Duration
	// Terms is the exported Guaranteed Service error-term pair:
	// C = eta_min, D = X.
	Terms gs.ErrorTerms
	// Bound is the delay bound at the requested rate.
	Bound time.Duration
	// Counterpart is the oppositely-directed flow on the same slave this
	// flow shares polls with (None if unpaired).
	Counterpart piconet.FlowID
	// Primary reports whether this flow drives the pair's poll planning
	// (the flow with the smaller poll interval; always true when
	// unpaired).
	Primary bool
}

// group is one poll stream: a primary flow and an optional piggybacked
// counterpart.
type group struct {
	// members holds the primary, then the counterpart (nil if unpaired).
	members [2]*PlannedFlow
}

// primary returns the flow that drives the group's poll planning.
func (g *group) primary() *PlannedFlow { return g.members[0] }

// stream returns the group's Fig. 2 stream parameters. A pair's exchange
// carries maximal segments in both directions.
func (g *group) stream() Stream {
	p, s := g.members[0], g.members[1]
	ex := p.Params.Exchange
	if s != nil {
		ex = pairExchangeTime(p.Params.MaxSegmentSlots, s.Params.MaxSegmentSlots)
	}
	return Stream{Interval: p.Params.Interval, Exchange: ex}
}

// flows returns the group's members, primary first.
func (g *group) flows() []*PlannedFlow {
	if g.members[1] == nil {
		return g.members[:1]
	}
	return g.members[:]
}

// Controller runs Guaranteed Service admission control for one piconet. It
// maintains the accepted flow set with its priority assignment and
// recomputes the assignment on every admission per the paper's Fig. 3
// routine. The zero value is not usable; create with NewController.
//
// Every change builds its new plan from copies of the accepted flows, in
// buffers of its own, and only then installs it, so a rejected change
// leaves the controller, and every *PlannedFlow it handed out, untouched.
// A plan a caller can see — the controller a planner returns, the flows
// Flows and Find hand out — lives in memory no later planning call writes.
type Controller struct {
	cfg Config
	// groups holds the accepted poll streams in priority order
	// (groups[0] has priority 1).
	groups []group
	// piggyback enables the pairing optimisation of Fig. 3; disabling it
	// reproduces the naive routine (each flow its own poll stream) for
	// the paper's "piggybacking accepts more flows" comparison.
	piggyback bool
}

// ControllerOption configures a Controller.
type ControllerOption func(*Controller)

// WithoutPiggybacking disables the pairing of oppositely-directed flows,
// for comparison experiments.
func WithoutPiggybacking() ControllerOption {
	return func(c *Controller) { c.piggyback = false }
}

// NewController returns an empty admission controller.
func NewController(cfg Config, opts ...ControllerOption) *Controller {
	c := new(Controller)
	c.reset(cfg, opts)
	return c
}

// reset makes c an empty controller with the given configuration.
func (c *Controller) reset(cfg Config, opts []ControllerOption) {
	*c = Controller{cfg: cfg, piggyback: true}
	for _, opt := range opts {
		opt(c)
	}
}

// Flows returns the admitted flows in priority order (pairs adjacent,
// primary first).
func (c *Controller) Flows() []*PlannedFlow {
	var out []*PlannedFlow
	for i := range c.groups {
		out = append(out, c.groups[i].flows()...)
	}
	return out
}

// appendFlows appends copies of the admitted flows in priority order, less
// the one with id drop (None keeps all), to dst: the flows a new plan
// mutates.
func (c *Controller) appendFlows(dst []PlannedFlow, drop piconet.FlowID) []PlannedFlow {
	for i := range c.groups {
		for _, f := range c.groups[i].flows() {
			if f.Request.ID != drop {
				dst = append(dst, *f)
			}
		}
	}
	return dst
}

// countFlows returns the number of flows in groups.
func countFlows(groups []group) int {
	n := 0
	for i := range groups {
		n += len(groups[i].flows())
	}
	return n
}

// detach returns a copy of c whose plan lives in memory of its own: the
// form in which a planner hands out the plan it built in a workspace.
func (c *Controller) detach() *Controller {
	d := *c
	d.groups = copyPlan(c.groups)
	return &d
}

// copyPlan returns a copy of groups and of the flows they point to.
func copyPlan(groups []group) []group {
	slab := make([]PlannedFlow, 0, countFlows(groups))
	out := make([]group, len(groups))
	for i := range groups {
		for j, f := range groups[i].flows() {
			slab = append(slab, *f)
			out[i].members[j] = &slab[len(slab)-1]
		}
	}
	return out
}

// Find returns the planned flow with the given id.
func (c *Controller) Find(id piconet.FlowID) (*PlannedFlow, bool) {
	for i := range c.groups {
		for _, f := range c.groups[i].flows() {
			if f.Request.ID == id {
				return f, true
			}
		}
	}
	return nil, false
}

// maxExchange returns the piconet-wide Xi over the given groups, honouring
// the configured override.
func (c *Controller) maxExchange(groups []group) time.Duration {
	if c.cfg.MaxExchange > 0 {
		return c.cfg.MaxExchange
	}
	var maxEx time.Duration
	for i := range groups {
		if ex := groups[i].stream().Exchange; ex > maxEx {
			maxEx = ex
		}
	}
	return maxEx
}

// Admit runs the Fig. 3 admission routine for a new request. On success the
// controller's flow set and priorities are updated and the planned flow is
// returned; on rejection the controller is left unchanged and the error
// wraps ErrRejected.
func (c *Controller) Admit(req Request) (*PlannedFlow, error) {
	var shape Params
	var ws workspace
	groups, pf, err := c.plan(req, &shape, &ws)
	if err != nil {
		return nil, err
	}
	// The workspace is this call's alone, so its plan is installed as
	// it is.
	c.groups = groups
	return pf, nil
}

// item is one poll stream competing in the Fig. 3 priority search.
type item struct {
	g        *group
	st       Stream
	initPrio int
}

// workspace holds the buffers the trials of one planning call reuse, so a
// trial admission allocates nothing once they have grown. A trial reads
// the installed plan from one turn's flow slab and ordered groups and
// writes the next plan into the other turn's. Each planning call owns its
// workspaces; what a caller can see is copied out of them (detach,
// copyPlan).
type workspace struct {
	// flows and ordered are the plans' flow slabs and priority-ordered
	// groups; the ordered groups of a turn point into its slab.
	flows   [2][]PlannedFlow
	ordered [2][]group
	// turn indexes the buffers the next plan writes.
	turn int
	// groups, items, others and higher are scratch within one plan.
	groups []group
	items  []item
	others []Stream
	higher []Stream
	// ctrl is admitAll's trial controller.
	ctrl Controller
}

// reserve sizes every buffer for plans of up to n flows, so that no trial
// grows one.
func (ws *workspace) reserve(n int) {
	for t := range ws.flows {
		ws.flows[t] = reuse(ws.flows[t], n)
		ws.ordered[t] = reuse(ws.ordered[t], n)
	}
	ws.groups = reuse(ws.groups, n)
	ws.items = reuse(ws.items, n)
	// One more stream for the SCO links.
	ws.others = reuse(ws.others, n+1)
	ws.higher = reuse(ws.higher, n+1)
}

// reuse returns buf emptied, with room for n elements: a workspace buffer
// is reallocated only when it is too small. (slices.Grow would allocate
// twice per growth under the race detector, which the allocation tests
// run under.)
func reuse[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, 0, n)
	}
	return buf[:0]
}

// plan runs the Fig. 3 routine for req against the accepted flows and
// returns the new plan and the new flow's place in it, leaving the
// controller as it is. shape holds the request's rate-independent
// parameters (Params.deriveShape): a planner passes the same one for every
// trial rate of a request, so only the first trial derives it. The plan is
// written into ws's buffers of the current turn, which must not hold the
// controller's plan.
func (c *Controller) plan(req Request, shape *Params, ws *workspace) ([]group, *PlannedFlow, error) {
	if _, dup := c.Find(req.ID); dup {
		return nil, nil, fmt.Errorf("%w: %d", ErrDuplicateFlow, req.ID)
	}
	if err := req.validate(); err != nil {
		return nil, nil, err
	}
	if err := shape.deriveShape(req); err != nil {
		return nil, nil, err
	}
	n := 1 // the accepted flows and the new one
	for i := range c.groups {
		for _, f := range c.groups[i].flows() {
			if f.Request.Slave == req.Slave && f.Request.Dir == req.Dir {
				return nil, nil, fmt.Errorf("%w: slave %d already has a %v GS flow",
					ErrBadRequest, req.Slave, req.Dir)
			}
			n++
		}
	}
	// SCO links act as an implicit highest-priority stream and bound the
	// largest schedulable exchange.
	sco, err := c.cfg.scoLimits()
	if err != nil {
		return nil, nil, err
	}

	// Step b: P = accepted flows + the new one, with initial priority
	// values (existing flows keep theirs; the new flow inherits its
	// counterpart's, or gets the lowest).
	flows := c.appendFlows(reuse(ws.flows[ws.turn], n), piconet.None)
	flows = append(flows, PlannedFlow{Request: req, Params: shape.atRate(req, c.cfg)})
	ws.flows[ws.turn] = flows
	newFlow := &flows[n-1]
	groups := c.pairUp(reuse(ws.groups, n), flows)
	ws.groups = groups
	items := reuse(ws.items, len(groups))
	for i := range groups {
		g := &groups[i]
		// A group's initial priority is that of any existing member
		// (so a new flow paired with an accepted one inherits its
		// counterpart's); a group of only the new flow gets the value
		// after the current lowest.
		prio := 0
		for _, f := range g.flows() {
			if f != newFlow && f.Priority > 0 {
				prio = f.Priority
				break
			}
		}
		if prio == 0 {
			prio = len(c.groups) + 1
		}
		items = append(items, item{g: g, st: g.stream(), initPrio: prio})
	}
	ws.items = items
	for _, it := range items {
		if err := sco.checkWindow(it.st.Exchange); err != nil {
			return nil, nil, fmt.Errorf("%w: %w", ErrRejected, err)
		}
	}

	// Step e: assign priorities from lowest (value card(P)) to highest,
	// scanning candidates in descending initial priority so as few flows
	// as possible change priority. The streams still unassigned compete
	// with the candidate; ordered fills from its lowest priority up.
	slices.SortStableFunc(items, func(a, b item) int { return cmp.Compare(b.initPrio, a.initPrio) })
	xi := c.maxExchange(groups)
	ordered := reuse(ws.ordered[ws.turn], len(items))[:len(items)]
	ws.ordered[ws.turn] = ordered
	others := reuse(ws.others, sco.n+len(items))
	ws.others = others
	for remaining := items; len(remaining) > 0; {
		found := -1
		for idx, cand := range remaining {
			others = append(others[:0], sco.streams()...)
			for j, o := range remaining {
				if j != idx {
					others = append(others, o.st)
				}
			}
			if Feasible(DetermineX(xi, others, cand.st.Interval), cand.st.Interval) {
				found = idx
				break
			}
		}
		if found < 0 {
			return nil, nil, priorityError(req.ID)
		}
		ordered[len(remaining)-1] = *remaining[found].g
		remaining = append(remaining[:found], remaining[found+1:]...)
	}
	ws.higher = reuse(ws.higher, sco.n+len(ordered))
	if err := c.finalize(ordered, xi, &sco, ws.higher); err != nil {
		return nil, nil, err
	}
	return ordered, newFlow, nil
}

// priorityError is plan's refusal when no priority assignment satisfies
// x <= t for the flow it names. It wraps ErrRejected and renders its text
// only when asked, so the refused trials of a planning search format
// nothing.
type priorityError piconet.FlowID

func (e priorityError) Error() string {
	return ErrRejected.Error() + ": no priority assignment satisfies x <= t for flow " + strconv.Itoa(int(e))
}

func (priorityError) Unwrap() error { return ErrRejected }

// AdmitForDelay is the online form of the Guaranteed Service negotiation:
// the request names a delay target instead of a rate, and the controller
// picks the smallest rate R whose resulting bound meets the target against
// the currently accepted flow set (the exported C/D terms shift as the
// priority assignment changes, so the choice iterates). Every trial rate
// reuses the request's rate-independent shape (eta_min, the largest
// segment), derived at the first trial, and one workspace. On success the
// accepted plan is copied into memory of its own and installed exactly as
// Admit would install it; on rejection — either infeasibility
// of the Fig. 3 routine at some trial rate or a target no rate can meet —
// the controller is left unchanged and the error wraps ErrRejected.
func (c *Controller) AdmitForDelay(dr DelayRequest) (*PlannedFlow, error) {
	if err := dr.Request.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if dr.Target <= 0 {
		return nil, fmt.Errorf("%w: non-positive delay target", ErrBadRequest)
	}
	// Under derating the reserved rate must at least cover the token
	// rate after the interference tax, and the rate the bound formula
	// asks for is an effective rate — gross it up by 1/s to reserve.
	// Bridge hops compound the FH term with their residency duty cycle
	// (Request.SuccessScale), so a part-time slave reserves enough rate
	// to drain its queue within its windows alone.
	s := c.cfg.successProbFor(dr.Request)
	rate := dr.Request.Spec.TokenRate / s
	var shape Params
	var ws workspace
	const maxIters = 60
	for iter := 0; iter < maxIters; iter++ {
		req := dr.Request
		req.Rate = rate
		groups, pf, err := c.plan(req, &shape, &ws)
		if err != nil {
			// Rates only grow across iterations, so an infeasible
			// trial can never become feasible later.
			return nil, err
		}
		if pf.Bound <= dr.Target {
			c.groups = copyPlan(groups)
			pf, _ = c.Find(req.ID)
			return pf, nil
		}
		needed, err := gs.RequiredRate(dr.Request.Spec, dr.Target, pf.Terms)
		if err == nil {
			needed /= s
		}
		if err != nil || needed <= rate {
			// The target sits below the exported D (no rate closes
			// the gap directly) or the formula stalled because x
			// grew with the rate: nudge upward to make progress.
			needed = rate * 1.05
		}
		rate = needed
	}
	return nil, fmt.Errorf("%w: no rate meets the %v target for flow %d",
		ErrRejected, dr.Target, dr.Request.ID)
}

// Renegotiate re-runs the online rate negotiation for an already-accepted
// flow at a new delay target: mid-call tightening (a smaller target
// reserves a higher rate) or loosening (capacity is handed back). The
// whole exchange is atomic — it trials release-plus-readmission on a
// shallow copy of the controller, so a rejection leaves the controller,
// and the flow's existing contract, exactly as they were.
func (c *Controller) Renegotiate(id piconet.FlowID, target time.Duration) (*PlannedFlow, error) {
	pf, ok := c.Find(id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownFlow, id)
	}
	// A shallow copy is a safe trial: every change replaces groups with
	// a new plan in memory of its own and never writes the flows the
	// old one points to.
	trial := *c
	if err := trial.Remove(id); err != nil {
		return nil, err
	}
	req := pf.Request
	req.Rate = 0
	admitted, err := trial.AdmitForDelay(DelayRequest{Request: req, Target: target})
	if err != nil {
		return nil, err
	}
	c.groups = trial.groups
	return admitted, nil
}

// SetSCOLinks replaces the configured synchronous links and recomputes the
// accepted flows' x values, error terms and bounds under the new
// reservation pattern, preserving their relative priority order. If the
// accepted set is no longer schedulable with the new links — a newly
// arriving voice call may not fit around the existing Guaranteed Service
// contracts — the controller is left unchanged and the error wraps
// ErrRejected.
func (c *Controller) SetSCOLinks(links []sco.Channel) error {
	oldLinks := c.cfg.SCOLinks
	c.cfg.SCOLinks = links
	if err := c.replan(piconet.None); err != nil {
		c.cfg.SCOLinks = oldLinks
		return err
	}
	return nil
}

// SCOLinks returns the currently configured synchronous links.
func (c *Controller) SCOLinks() []sco.Channel {
	return append([]sco.Channel(nil), c.cfg.SCOLinks...)
}

// SetSuccessProb replaces the interference derating input — the
// effective per-exchange success probability s — and recomputes the
// accepted flows' error terms and bounds against it, preserving their
// relative priority order (x values do not move: poll intervals depend on
// the reserved raw rates, which stay as contracted). Scatternet churn
// calls this when piconets join or leave: a join tightens s and loosens
// every bound, a leave relaxes it. If some accepted flow's derated rate
// R·s no longer covers its token rate the new estimate is unservable for
// the existing contracts — the controller is left unchanged and the
// error wraps ErrRejected, so the caller can record the refused
// re-derate.
func (c *Controller) SetSuccessProb(s float64) error {
	old := c.cfg.SuccessProb
	c.cfg.SuccessProb = s
	if err := c.replan(piconet.None); err != nil {
		c.cfg.SuccessProb = old
		return err
	}
	return nil
}

// SuccessProb returns the success probability admission currently
// derates against (1 on the ideal channel).
func (c *Controller) SuccessProb() float64 { return c.cfg.successProb() }

// Remove drops a flow from the accepted set. Remaining flows keep their
// relative priority order; their x values and bounds are recomputed (they
// can only improve).
func (c *Controller) Remove(id piconet.FlowID) error {
	if _, ok := c.Find(id); !ok {
		return fmt.Errorf("%w: %d", ErrUnknownFlow, id)
	}
	return c.replan(id)
}

// replan re-pairs copies of the accepted flows, less the one with id drop
// (None keeps all), keeps their relative priority order and recomputes x,
// error terms and bounds under the current configuration. The new plan
// replaces the old one only if every flow stays feasible.
func (c *Controller) replan(drop piconet.FlowID) error {
	sco, err := c.cfg.scoLimits()
	if err != nil {
		return err
	}
	n := countFlows(c.groups)
	groups := c.pairUp(make([]group, 0, n), c.appendFlows(make([]PlannedFlow, 0, n), drop))
	slices.SortStableFunc(groups, func(a, b group) int {
		return cmp.Compare(a.primary().Priority, b.primary().Priority)
	})
	higher := make([]Stream, 0, sco.n+len(groups))
	if err := c.finalize(groups, c.maxExchange(groups), &sco, higher); err != nil {
		return err
	}
	c.groups = groups
	return nil
}

// pairUp groups flows into poll streams, in the order their slaves first
// appear, pairing oppositely-directed flows on the same slave when
// piggybacking is enabled. The pair's primary is the flow with the smaller
// poll interval (larger rate demand), per §3.1.4. The groups are appended
// to groups and point into flows.
func (c *Controller) pairUp(groups []group, flows []PlannedFlow) []group {
	for i := range flows {
		f := &flows[i]
		slave := f.Request.Slave
		// The slave's flows are grouped at its first appearance.
		first, n, mate := true, 1, (*PlannedFlow)(nil)
		for j := range flows {
			if j == i || flows[j].Request.Slave != slave {
				continue
			}
			if j < i {
				first = false
				break
			}
			n++
			mate = &flows[j]
		}
		if !first {
			continue
		}
		if c.piggyback && n == 2 && f.Request.Dir != mate.Request.Dir {
			primary, secondary := f, mate
			if secondary.Params.Interval < primary.Params.Interval {
				primary, secondary = secondary, primary
			}
			primary.Primary = true
			secondary.Primary = false
			primary.Counterpart = secondary.Request.ID
			secondary.Counterpart = primary.Request.ID
			groups = append(groups, group{members: [2]*PlannedFlow{primary, secondary}})
			continue
		}
		for j := i; j < len(flows); j++ {
			if o := &flows[j]; o.Request.Slave == slave {
				o.Primary = true
				o.Counterpart = piconet.None
				groups = append(groups, group{members: [2]*PlannedFlow{o}})
			}
		}
	}
	return groups
}

// finalize recomputes x, priorities, error terms and bounds for groups in
// priority order under the plan's SCO limits, verifying feasibility.
// higher is an empty buffer with room for the SCO stream and every group.
func (c *Controller) finalize(ordered []group, xi time.Duration, sco *scoLimits, higher []Stream) error {
	// higher holds the SCO stream, then every group above the current one.
	higher = append(higher, sco.streams()...)
	for i := range ordered {
		g := &ordered[i]
		st := g.stream()
		if err := sco.checkWindow(st.Exchange); err != nil {
			return fmt.Errorf("%w: %w", ErrRejected, err)
		}
		x := DetermineX(xi, higher, st.Interval)
		if !Feasible(x, st.Interval) {
			return fmt.Errorf("%w: finalize: x=%v > t=%v at priority %d",
				ErrRejected, x, st.Interval, i+1)
		}
		higher = append(higher, st)
		for _, f := range g.flows() {
			s := c.cfg.successProbFor(f.Request)
			f.Priority = i + 1
			f.X = x
			f.Terms = DeratedErrorTerms(f.Params.EtaMin, x, s)
			// Interference taxes the reserved rate: only R·s of it
			// arrives as fluid service, and the bound must be honest
			// about that. A flow whose derated rate cannot cover its
			// token rate would queue without bound — reject it (the
			// online negotiators compensate by reserving R >= r/s).
			eff := f.Request.Rate * s
			if tr := f.Request.Spec.TokenRate; eff < tr {
				if eff >= tr*(1-1e-9) {
					eff = tr // float rounding of an exact r/s reservation
				} else {
					return fmt.Errorf("%w: flow %d: derated rate %.1f×%.4f = %.1f below token rate %.1f",
						ErrRejected, f.Request.ID, f.Request.Rate, s, eff, tr)
				}
			}
			bound, err := gs.DelayBound(f.Request.Spec, eff, f.Terms)
			if err != nil {
				return fmt.Errorf("admission: bound for flow %d: %w", f.Request.ID, err)
			}
			f.Bound = bound
		}
	}
	return nil
}
