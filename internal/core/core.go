// Package core implements the paper's primary contribution: a Bluetooth
// intra-piconet polling mechanism that provides Guaranteed Service delay
// bounds (Ait Yaiz & Heijenk, ICDCSW'03).
//
// The Scheduler plans polls for every admitted Guaranteed Service flow at
// interval t_i = eta_min_i / R_i and executes due polls in flow-priority
// order (§3.1, the fixed-interval poller). In variable-interval mode (§3.2)
// three improvement rules postpone or skip polls without violating any
// bound, saving slots for best-effort traffic or retransmissions:
//
//	(a) after the last segment of a packet of size L, the next poll is
//	    planned L/R after the planned time of the packet's first poll
//	    (the packet "pays" exactly its fluid-model service time);
//	(b) after a poll that moved no Guaranteed Service data, the next poll
//	    is planned t after the poll's actual (not planned) time;
//	(c) a planned poll for a master-to-slave flow whose queue is known to
//	    be empty is skipped entirely and re-planned on the next arrival.
//
// Piggybacked pairs (two oppositely-directed flows on one slave) share a
// single poll stream driven by the pair's primary flow. Capacity not used
// by due Guaranteed Service polls is delegated to a best-effort poller from
// internal/poller. The Scheduler implements piconet.Scheduler.
package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"bluegs/internal/admission"
	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
	"bluegs/internal/poller"
	"bluegs/internal/sim"
)

// Errors returned by scheduler construction.
var (
	ErrNilPiconet   = errors.New("core: nil piconet")
	ErrFlowMismatch = errors.New("core: planned flow does not match piconet flow")
	ErrBadPlan      = errors.New("core: invalid admission plan")
)

// Mode selects the §3.1 fixed-interval or §3.2 variable-interval planner.
type Mode int

// Planner modes.
const (
	// FixedInterval plans polls on a strict t-spaced grid (§3.1).
	FixedInterval Mode = iota + 1
	// VariableInterval enables the §3.2 improvement rules (individually
	// selectable via WithImprovements).
	VariableInterval
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case FixedInterval:
		return "fixed-interval"
	case VariableInterval:
		return "variable-interval"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Improvements is a bit set of the §3.2 rules, for ablation studies.
type Improvements uint8

// Improvement rules.
const (
	// PostponeAfterPacket is rule (a): plan the poll after a completed
	// packet of size L at firstPollPlan + L/R (paper eq. 10).
	PostponeAfterPacket Improvements = 1 << iota
	// PostponeAfterEmpty is rule (b): plan the poll after an
	// unsuccessful poll t after its actual time.
	PostponeAfterEmpty
	// SkipEmptyDown is rule (c): skip planned polls for master-to-slave
	// flows with a known-empty queue.
	SkipEmptyDown

	// AllImprovements enables all three rules (the paper's evaluated
	// configuration).
	AllImprovements = PostponeAfterPacket | PostponeAfterEmpty | SkipEmptyDown
)

// String renders the active rules, e.g. "a+c" or "none".
func (i Improvements) String() string {
	if i == 0 {
		return "none"
	}
	var parts []string
	if i&PostponeAfterPacket != 0 {
		parts = append(parts, "a")
	}
	if i&PostponeAfterEmpty != 0 {
		parts = append(parts, "b")
	}
	if i&SkipEmptyDown != 0 {
		parts = append(parts, "c")
	}
	return strings.Join(parts, "+")
}

// stream is one Guaranteed Service poll stream: a primary flow and an
// optional piggybacked counterpart, with its planning state.
type stream struct {
	priority int
	slave    piconet.SlaveID
	down     piconet.FlowID // None when the stream has no downlink flow
	up       piconet.FlowID // None when the stream has no uplink flow
	// primaryDir is the direction of the pair's primary flow, whose
	// packets drive the planning rules.
	primaryDir piconet.Direction
	// interval is the primary's poll interval t.
	interval time.Duration
	// etaMin is the primary's minimum poll efficiency (bytes/poll).
	etaMin float64
	// rate is the primary's reserved rate R (bytes/s).
	rate float64
	// downMaxSlots and upMaxSlots bound the slot occupancy of each leg
	// of this stream's exchanges (for SCO window fitting).
	downMaxSlots int
	upMaxSlots   int

	// nextPlan is the next planned poll time; meaningful when planned.
	nextPlan sim.Time
	planned  bool
	// inFlight marks a poll between Decide and OnOutcome, with the plan
	// time it is serving.
	inFlight     bool
	inFlightPlan sim.Time
	// pktFirstPlan tracks, for the primary flow's packet currently in
	// service, the plan time of the poll that served its first segment
	// (rule (a) state).
	pktFirstPlan  sim.Time
	pktInProgress bool

	// retryPending marks a stream with a lost segment awaiting a
	// loss-recovery poll; retryInFlight marks that poll in progress.
	retryPending  bool
	retryInFlight bool

	// polls counts executed polls; skipped counts rule-(c) skips;
	// retries counts loss-recovery polls.
	polls   uint64
	skipped uint64
	retries uint64
}

// Scheduler is the Guaranteed Service master scheduler. Create with New and
// install on the piconet with Piconet.SetScheduler.
type Scheduler struct {
	pn      *piconet.Piconet
	mode    Mode
	rules   Improvements
	be      poller.Poller
	beView  *beView
	streams []*stream // priority order
	byFlow  map[piconet.FlowID]*stream
	// lossRecovery enables recovery polls for lost GS segments.
	lossRecovery bool
	// resident is the bridge-residency oracle (nil: every slave is always
	// reachable). See WithResidency.
	resident func(slave piconet.SlaveID, at sim.Time) (bool, sim.Time)
	// beOutcomes and gsOutcomes count exchanges for reports.
	beOutcomes uint64
	gsOutcomes uint64
	// retiredSkipped and retiredRetries accumulate the per-stream
	// counters of streams removed by Replan, so run totals survive churn.
	retiredSkipped uint64
	retiredRetries uint64
}

var _ piconet.Scheduler = (*Scheduler)(nil)

// Option configures a Scheduler.
type Option func(*Scheduler)

// WithMode selects the planner mode (default VariableInterval).
func WithMode(m Mode) Option {
	return func(s *Scheduler) { s.mode = m }
}

// WithImprovements selects which §3.2 rules are active in variable-interval
// mode (default AllImprovements). Ignored in fixed-interval mode.
func WithImprovements(rules Improvements) Option {
	return func(s *Scheduler) { s.rules = rules }
}

// WithBEPoller installs the best-effort poller consulted when no
// Guaranteed Service poll is due (default: PFP with equal weights).
func WithBEPoller(p poller.Poller) Option {
	return func(s *Scheduler) {
		if p != nil {
			s.be = p
		}
	}
}

// WithLossRecovery enables the paper's future-work retransmission policy:
// when an exchange loses a Guaranteed Service segment on air (visible to
// the master through the baseband ARQ), the scheduler issues an extra
// recovery poll from the *saved* bandwidth — after all due planned polls
// but before best-effort traffic — so retransmissions neither consume the
// flow's own poll budget nor disturb any other flow's x_i analysis.
// Meaningful only with a lossy radio model and ARQ enabled on the piconet.
func WithLossRecovery(enabled bool) Option {
	return func(s *Scheduler) { s.lossRecovery = enabled }
}

// WithResidency installs a slave-residency oracle for scatternet bridge
// slaves: reachable(slave, at) reports whether the slave is (or will be)
// listening in this piconet at the instant `at` and, when it is not, when
// its residency window next opens. The oracle must be a pure function of
// its arguments — Decide also queries future instants to size its idle
// horizon. A due poll to an absent slave is deferred, not skipped: the
// stream keeps its rule-(a) planning state, the lag keeps charging to the
// original plan, and the poll fires the moment the window opens (never
// tripping supervision on mere absence). Slaves the oracle does not know
// should report reachable.
func WithResidency(reachable func(slave piconet.SlaveID, at sim.Time) (bool, sim.Time)) Option {
	return func(s *Scheduler) { s.resident = reachable }
}

// New builds a Scheduler for the piconet from an admission plan (the
// planned flows of an admission.Controller). Every planned flow must exist
// in the piconet as a Guaranteed class flow with matching slave and
// direction.
func New(pn *piconet.Piconet, plan []*admission.PlannedFlow, opts ...Option) (*Scheduler, error) {
	if pn == nil {
		return nil, ErrNilPiconet
	}
	s := &Scheduler{
		pn:     pn,
		mode:   VariableInterval,
		rules:  AllImprovements,
		be:     &poller.PFP{},
		byFlow: make(map[piconet.FlowID]*stream),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.mode == FixedInterval {
		s.rules = 0
	}

	streams, byFlow, err := buildStreams(pn, plan)
	if err != nil {
		return nil, err
	}
	s.streams = streams
	s.byFlow = byFlow
	s.beView = newBEView(pn)
	// All streams start planned at time zero (the piconet aligns the
	// first decision); down-only streams with the skip rule go dormant
	// at their first empty plan.
	now := pn.Now()
	for _, st := range s.streams {
		st.nextPlan = now
		st.planned = true
	}
	return s, nil
}

// buildStreams validates an admission plan against the piconet and
// assembles the poll streams in priority order plus the flow index.
func buildStreams(pn *piconet.Piconet, plan []*admission.PlannedFlow) (
	[]*stream, map[piconet.FlowID]*stream, error) {
	byPriority := make(map[int][]*admission.PlannedFlow)
	var priorities []int
	for _, pf := range plan {
		if pf == nil {
			return nil, nil, fmt.Errorf("%w: nil planned flow", ErrBadPlan)
		}
		cfg, ok := pn.FlowConfig(pf.Request.ID)
		if !ok {
			return nil, nil, fmt.Errorf("%w: flow %d not in piconet", ErrFlowMismatch, pf.Request.ID)
		}
		if cfg.Class != piconet.Guaranteed || cfg.Slave != pf.Request.Slave || cfg.Dir != pf.Request.Dir {
			return nil, nil, fmt.Errorf("%w: flow %d", ErrFlowMismatch, pf.Request.ID)
		}
		if !pn.FlowActive(pf.Request.ID) {
			return nil, nil, fmt.Errorf("%w: flow %d is retired", ErrFlowMismatch, pf.Request.ID)
		}
		if len(byPriority[pf.Priority]) == 0 {
			priorities = append(priorities, pf.Priority)
		}
		byPriority[pf.Priority] = append(byPriority[pf.Priority], pf)
	}
	// Priorities from the admission controller are 1..n; order them.
	for i := 1; i < len(priorities); i++ {
		for j := i; j > 0 && priorities[j] < priorities[j-1]; j-- {
			priorities[j], priorities[j-1] = priorities[j-1], priorities[j]
		}
	}
	var streams []*stream
	byFlow := make(map[piconet.FlowID]*stream)
	for _, prio := range priorities {
		members := byPriority[prio]
		st, err := newStream(prio, members)
		if err != nil {
			return nil, nil, err
		}
		streams = append(streams, st)
		for _, pf := range members {
			byFlow[pf.Request.ID] = st
		}
	}
	return streams, byFlow, nil
}

// primaryFlow returns the id of the stream's planning-driving flow.
func (st *stream) primaryFlow() piconet.FlowID {
	if st.primaryDir == piconet.Up {
		return st.up
	}
	return st.down
}

// Replan swaps in a new admission plan mid-run: the scheduler rebuilds its
// poll streams from the plan (which must cover exactly the piconet's
// active Guaranteed class flows) and refreshes the best-effort view.
//
// Planning state carries over so the paper's analysis keeps holding for
// surviving flows: a stream whose primary flow persists keeps its next
// planned poll time, in-flight poll, packet-progress (rule a) and
// loss-recovery state — only its interval, priority and pairing follow
// the new plan, exactly as the Fig. 3 routine reassigns them. Streams for
// newly admitted flows are planned immediately (their x analysis starts
// at the first poll); streams whose flows left simply disappear, with
// their skip/retry counters folded into the run totals.
func (s *Scheduler) Replan(plan []*admission.PlannedFlow) error {
	streams, byFlow, err := buildStreams(s.pn, plan)
	if err != nil {
		return err
	}
	now := s.pn.Now()
	old := s.byFlow
	claimed := make(map[*stream]bool, len(old))
	for _, st := range streams {
		prev, ok := old[st.primaryFlow()]
		if !ok || claimed[prev] {
			st.nextPlan = now
			st.planned = true
			continue
		}
		claimed[prev] = true
		st.nextPlan, st.planned = prev.nextPlan, prev.planned
		st.inFlight, st.inFlightPlan = prev.inFlight, prev.inFlightPlan
		st.retryPending, st.retryInFlight = prev.retryPending, prev.retryInFlight
		st.polls, st.skipped, st.retries = prev.polls, prev.skipped, prev.retries
		if prev.primaryFlow() == st.primaryFlow() {
			// Same driving flow: its packet-in-service progress is
			// still meaningful under the new interval.
			st.pktFirstPlan, st.pktInProgress = prev.pktFirstPlan, prev.pktInProgress
		}
	}
	// Fold the counters of vanished streams into the run totals.
	for _, prev := range s.streams {
		if !claimed[prev] {
			s.retiredSkipped += prev.skipped
			s.retiredRetries += prev.retries
		}
	}
	s.streams = streams
	s.byFlow = byFlow
	s.beView = newBEView(s.pn)
	return nil
}

// RefreshBE rebuilds the best-effort view after best-effort flows were
// added or retired mid-run.
func (s *Scheduler) RefreshBE() {
	s.beView = newBEView(s.pn)
}

// newStream validates and builds one poll stream from the flows sharing a
// priority (one flow, or a piggybacked pair).
func newStream(prio int, members []*admission.PlannedFlow) (*stream, error) {
	if len(members) == 0 || len(members) > 2 {
		return nil, fmt.Errorf("%w: priority %d has %d members", ErrBadPlan, prio, len(members))
	}
	primary := members[0]
	if !primary.Primary && len(members) == 2 {
		primary = members[1]
	}
	if !primary.Primary {
		return nil, fmt.Errorf("%w: priority %d has no primary flow", ErrBadPlan, prio)
	}
	st := &stream{
		priority:   prio,
		slave:      primary.Request.Slave,
		primaryDir: primary.Request.Dir,
		interval:   primary.Params.Interval,
		etaMin:     primary.Params.EtaMin,
		rate:       primary.Request.Rate,
	}
	for _, pf := range members {
		if pf.Request.Slave != st.slave {
			return nil, fmt.Errorf("%w: priority %d spans slaves", ErrBadPlan, prio)
		}
		switch pf.Request.Dir {
		case piconet.Down:
			if st.down != piconet.None {
				return nil, fmt.Errorf("%w: priority %d has two down flows", ErrBadPlan, prio)
			}
			st.down = pf.Request.ID
			st.downMaxSlots = pf.Request.Allowed.MaxSlots()
		case piconet.Up:
			if st.up != piconet.None {
				return nil, fmt.Errorf("%w: priority %d has two up flows", ErrBadPlan, prio)
			}
			st.up = pf.Request.ID
			st.upMaxSlots = pf.Request.Allowed.MaxSlots()
		default:
			return nil, fmt.Errorf("%w: flow %d bad direction", ErrBadPlan, pf.Request.ID)
		}
	}
	if st.interval <= 0 {
		return nil, fmt.Errorf("%w: priority %d non-positive interval", ErrBadPlan, prio)
	}
	return st, nil
}

// Mode returns the planner mode.
func (s *Scheduler) Mode() Mode { return s.mode }

// Rules returns the active improvement rules.
func (s *Scheduler) Rules() Improvements { return s.rules }

// BEPoller returns the installed best-effort poller.
func (s *Scheduler) BEPoller() poller.Poller { return s.be }

// GSPolls returns the number of Guaranteed Service polls executed.
func (s *Scheduler) GSPolls() uint64 { return s.gsOutcomes }

// BEPolls returns the number of best-effort polls executed.
func (s *Scheduler) BEPolls() uint64 { return s.beOutcomes }

// SkippedPolls returns the number of planned polls skipped by rule (c),
// including by streams a Replan has since removed.
func (s *Scheduler) SkippedPolls() uint64 {
	n := s.retiredSkipped
	for _, st := range s.streams {
		n += st.skipped
	}
	return n
}

// RecoveryPolls returns the number of loss-recovery polls issued,
// including by streams a Replan has since removed.
func (s *Scheduler) RecoveryPolls() uint64 {
	n := s.retiredRetries
	for _, st := range s.streams {
		n += st.retries
	}
	return n
}

// hasRule reports whether the given rule is active.
func (s *Scheduler) hasRule(r Improvements) bool {
	return s.mode == VariableInterval && s.rules&r != 0
}

// worstExchangeSlots bounds the slot occupancy of the stream's next
// exchange: the master must not start it unless it fits before the next
// SCO reservation.
func (s *Scheduler) worstExchangeSlots(st *stream, now sim.Time) int {
	down := 1 // POLL
	if st.down != piconet.None && s.pn.DownHeadAvailable(st.down, now) {
		down = st.downMaxSlots
	}
	up := 1 // NULL
	if st.up != piconet.None {
		up = st.upMaxSlots
	}
	return down + up
}

// Decide implements piconet.Scheduler.
func (s *Scheduler) Decide(now sim.Time, freeSlots int) piconet.Action {
	// Serve the highest-priority due Guaranteed Service poll that fits
	// before the next SCO reservation. Down-only streams with a
	// known-empty queue are skipped under rule (c).
	for _, st := range s.streams {
		if !st.planned || st.inFlight || st.nextPlan > now {
			continue
		}
		if s.resident != nil {
			if ok, _ := s.resident(st.slave, now); !ok {
				// The bridge is serving another piconet: defer, keeping
				// the plan (the wait charges to x like any other lag).
				continue
			}
		}
		if s.hasRule(SkipEmptyDown) && st.up == piconet.None &&
			!s.pn.DownHeadAvailable(st.down, now) {
			// Rule (c): skip and go dormant until an arrival.
			st.planned = false
			st.skipped++
			continue
		}
		if s.worstExchangeSlots(st, now) > freeSlots {
			// Window too small: the poll waits for the other side
			// of the reservation (charged to x by the SCO stream
			// model in admission). A lower-priority poll that does
			// fit may use the gap without delaying this one.
			continue
		}
		st.inFlight = true
		st.inFlightPlan = st.nextPlan
		st.polls++
		return piconet.PollGS(st.slave, st.down, st.up)
	}
	// Loss recovery: retransmission polls ride the saved bandwidth,
	// below every planned Guaranteed Service poll but above best effort,
	// so they disturb no flow's x_i analysis (they occupy the channel
	// like any best-effort exchange, which Xi already charges).
	if s.lossRecovery {
		for _, st := range s.streams {
			if !st.retryPending || st.inFlight || st.retryInFlight {
				continue
			}
			if s.resident != nil {
				if ok, _ := s.resident(st.slave, now); !ok {
					continue
				}
			}
			if s.worstExchangeSlots(st, now) > freeSlots {
				continue
			}
			st.retryInFlight = true
			st.retries++
			return piconet.PollGS(st.slave, st.down, st.up)
		}
	}
	// No GS poll due: spend the opportunity on best-effort traffic (the
	// x_i analysis already charges one maximal ongoing exchange, so any
	// BE exchange that fits the window is admissible here).
	if s.beView.worstSlots <= freeSlots {
		if slave, ok := s.be.Next(now, s.beView); ok {
			return piconet.PollBE(slave)
		}
	}
	// Nothing to do: sleep until the earliest plan; arrivals wake the
	// master via OnDownArrival.
	until := now + time.Hour
	for _, st := range s.streams {
		if !st.planned || st.inFlight {
			continue
		}
		wake := st.nextPlan
		if s.resident != nil {
			at := wake
			if at < now {
				at = now
			}
			if ok, open := s.resident(st.slave, at); !ok && open > wake {
				// The poll cannot execute before the slave's residency
				// window opens; don't wake for nothing.
				wake = open
			}
		}
		if wake < until {
			until = wake
		}
	}
	return piconet.Idle(until)
}

// OnOutcome implements piconet.Scheduler.
func (s *Scheduler) OnOutcome(o *piconet.Outcome) {
	switch o.Kind {
	case piconet.ActionPollBE:
		s.beOutcomes++
		s.be.Observe(poller.Outcome{
			Slave:      o.Slave,
			End:        o.End,
			DownBytes:  o.Down.Bytes,
			UpBytes:    o.Up.Bytes,
			Slots:      int((o.End - o.Start) / baseband.SlotDuration),
			UpMoreData: o.UpMoreData,
		})
	case piconet.ActionPollGS:
		s.gsOutcomes++
		s.onGSOutcome(o)
	}
}

// onGSOutcome advances the planning state of the stream the poll served.
func (s *Scheduler) onGSOutcome(o *piconet.Outcome) {
	var st *stream
	if o.Down.Flow != piconet.None {
		st = s.byFlow[o.Down.Flow]
	}
	if st == nil && o.Up.Flow != piconet.None {
		st = s.byFlow[o.Up.Flow]
	}
	if st == nil {
		// A GS poll that carried neither leg's flow id: find the
		// in-flight stream for the slave.
		for _, cand := range s.streams {
			if (cand.inFlight || cand.retryInFlight) && cand.slave == o.Slave {
				st = cand
				break
			}
		}
	}
	if st == nil {
		return
	}
	lostGS := o.Down.Lost || o.Up.Lost
	if st.retryInFlight {
		// A recovery poll completed: it does not touch the planning
		// state; another round is queued if the retry itself lost a
		// segment.
		st.retryInFlight = false
		st.retryPending = lostGS
		return
	}
	if !st.inFlight {
		return
	}
	if s.lossRecovery {
		// A successful planned poll retransmits the ARQ head itself,
		// so the pending flag tracks only the latest exchange.
		st.retryPending = lostGS
	}
	st.inFlight = false
	plan := st.inFlightPlan

	// Track the primary flow's packet progress for rule (a).
	primaryID := st.down
	primaryLeg := o.Down
	if st.primaryDir == piconet.Up {
		primaryID = st.up
		primaryLeg = o.Up
	}
	primaryServed := primaryLeg.Flow == primaryID && primaryLeg.Bytes > 0
	primaryCompleted := primaryServed && primaryLeg.CompletedPacketSize > 0
	anyServed := o.Down.Bytes > 0 || o.Up.Bytes > 0

	if primaryServed && !st.pktInProgress {
		st.pktInProgress = true
		st.pktFirstPlan = plan
	}

	next := plan + st.interval // the §3.1 fixed grid default
	switch {
	case primaryCompleted:
		if s.hasRule(PostponeAfterPacket) {
			// Rule (a): the packet pays L/R of poll budget from
			// its first poll's planned time (paper eq. 10).
			pay := time.Duration(float64(primaryLeg.CompletedPacketSize) / st.rate * float64(time.Second))
			if postponed := st.pktFirstPlan + pay; postponed > next {
				next = postponed
			}
		}
		st.pktInProgress = false
	case !anyServed:
		if s.hasRule(PostponeAfterEmpty) {
			// Rule (b): plan from the actual poll time.
			if postponed := o.Start + st.interval; postponed > next {
				next = postponed
			}
		}
	}
	st.nextPlan = next
	st.planned = true
}

// OnDownArrival implements piconet.Scheduler: it revives dormant
// (rule-(c)-skipped) streams.
func (s *Scheduler) OnDownArrival(flow piconet.FlowID, now sim.Time) {
	st, ok := s.byFlow[flow]
	if !ok || st.planned || st.inFlight {
		return
	}
	// A skipped plan proved the queue empty at that moment, so planning
	// at the arrival keeps executed polls at least t apart.
	st.nextPlan = now
	st.planned = true
}

// StreamInfo is a diagnostic snapshot of one poll stream.
type StreamInfo struct {
	Priority int
	Slave    piconet.SlaveID
	Down, Up piconet.FlowID
	Interval time.Duration
	NextPlan sim.Time
	Planned  bool
	Polls    uint64
	Skipped  uint64
}

// Streams returns diagnostic snapshots in priority order.
func (s *Scheduler) Streams() []StreamInfo {
	out := make([]StreamInfo, 0, len(s.streams))
	for _, st := range s.streams {
		out = append(out, StreamInfo{
			Priority: st.priority,
			Slave:    st.slave,
			Down:     st.down,
			Up:       st.up,
			Interval: st.interval,
			NextPlan: st.nextPlan,
			Planned:  st.planned,
			Polls:    st.polls,
			Skipped:  st.skipped,
		})
	}
	return out
}

// beView adapts the piconet's master-side knowledge to the poller.View
// interface, restricted to slaves that carry best-effort flows.
type beView struct {
	pn     *piconet.Piconet
	slaves []piconet.SlaveID
	// worstSlots bounds any best-effort exchange for SCO window fitting.
	worstSlots int
}

var _ poller.View = (*beView)(nil)

func newBEView(pn *piconet.Piconet) *beView {
	v := &beView{pn: pn}
	maxDown, maxUp := 1, 1
	for _, slave := range pn.Slaves() {
		hasBE := false
		for _, id := range pn.FlowsAt(slave) {
			cfg, ok := pn.FlowConfig(id)
			if !ok || cfg.Class != piconet.BestEffort || !pn.FlowActive(id) {
				continue
			}
			hasBE = true
			if cfg.Dir == piconet.Down {
				if s := cfg.Allowed.MaxSlots(); s > maxDown {
					maxDown = s
				}
			} else if s := cfg.Allowed.MaxSlots(); s > maxUp {
				maxUp = s
			}
		}
		if hasBE {
			v.slaves = append(v.slaves, slave)
		}
	}
	v.worstSlots = maxDown + maxUp
	return v
}

// Slaves implements poller.View.
func (v *beView) Slaves() []piconet.SlaveID { return v.slaves }

// HasDownBacklog implements poller.View.
func (v *beView) HasDownBacklog(slave piconet.SlaveID) bool {
	return v.pn.HasBEDownBacklog(slave)
}
