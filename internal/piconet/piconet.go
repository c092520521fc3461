// Package piconet models a Bluetooth piconet: one master, up to seven
// active slaves, per-flow logical channels with separate QoS and best-effort
// queues, and the master-driven TDD exchange engine that the polling
// mechanisms plug into.
//
// The model follows the assumptions of Ait Yaiz & Heijenk (ICDCSW'03) §3:
// no inquiry or paging, logical channels where a poll for a QoS flow cannot
// result in best-effort data, QoS and BE traffic queued separately, and a
// packet only being served by a poll if it was available when the master
// started the poll transmission. The radio is ideal by default; lossy models
// with ARQ retransmission can be enabled for the future-work experiments.
//
// Knowledge model: the master observes its own downlink queues exactly; for
// uplink queues it sees only poll outcomes (carried bytes, a NULL response,
// and the slave's more-data flag). Schedulers must respect this — accessor
// methods prefixed Oracle are for tests and verification only.
package piconet

import (
	"errors"
	"fmt"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/radio"
	"bluegs/internal/sim"
	"bluegs/internal/stats"
)

// Errors returned by piconet configuration and operation.
var (
	ErrDuplicateSlave = errors.New("piconet: duplicate slave")
	ErrUnknownSlave   = errors.New("piconet: unknown slave")
	ErrUnknownFlow    = errors.New("piconet: unknown flow")
	ErrDuplicateFlow  = errors.New("piconet: duplicate flow id")
	ErrInvalidFlow    = errors.New("piconet: invalid flow configuration")
	ErrNoScheduler    = errors.New("piconet: no scheduler installed")
	ErrAlreadyStarted = errors.New("piconet: already started")
	ErrQueueMismatch  = errors.New("piconet: flow/slave/direction mismatch in action")
	ErrPacketTooSmall = errors.New("piconet: packet size must be positive")
	ErrSegmentFailure = errors.New("piconet: segmentation failed")
	ErrActionInvalid  = errors.New("piconet: invalid scheduler action")
	ErrClassMismatch  = errors.New("piconet: action class does not match flow class")
	ErrSlaveNotOfFlow = errors.New("piconet: flow does not belong to addressed slave")
	ErrFlowRetired    = errors.New("piconet: flow is retired")
	ErrFlowSuspended  = errors.New("piconet: flow is suspended")
)

// DecisionInterval is the spacing of master transmit opportunities: every
// other slot (master transmissions start in even-numbered slots).
const DecisionInterval = 2 * baseband.SlotDuration

// SlaveID identifies an active slave (1..7, mirroring the AM_ADDR).
type SlaveID int

// FlowID identifies a logical flow. Zero means "no flow".
type FlowID int

// None is the absent FlowID.
const None FlowID = 0

// Direction of a flow relative to the master.
type Direction int

// Flow directions.
const (
	// Down is master-to-slave.
	Down Direction = iota + 1
	// Up is slave-to-master.
	Up
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Down:
		return "down"
	case Up:
		return "up"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Class is the service class of a flow's logical channel.
type Class int

// Flow classes.
const (
	// BestEffort traffic has no guarantees and is served in leftover
	// capacity.
	BestEffort Class = iota + 1
	// Guaranteed traffic belongs to an admitted Guaranteed Service flow.
	Guaranteed
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case BestEffort:
		return "BE"
	case Guaranteed:
		return "GS"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// FlowConfig describes one unidirectional flow in the piconet.
type FlowConfig struct {
	// ID is the flow identifier (must be nonzero and unique).
	ID FlowID
	// Slave is the slave endpoint.
	Slave SlaveID
	// Dir is the flow direction.
	Dir Direction
	// Class is the service class.
	Class Class
	// Allowed is the set of baseband packet types the flow may use.
	Allowed baseband.TypeSet
}

func (c FlowConfig) validate() error {
	if c.ID == None {
		return fmt.Errorf("%w: zero flow id", ErrInvalidFlow)
	}
	if c.Dir != Down && c.Dir != Up {
		return fmt.Errorf("%w: bad direction", ErrInvalidFlow)
	}
	if c.Class != BestEffort && c.Class != Guaranteed {
		return fmt.Errorf("%w: bad class", ErrInvalidFlow)
	}
	if _, ok := c.Allowed.LargestACL(); !ok {
		return fmt.Errorf("%w: no ACL types allowed", ErrInvalidFlow)
	}
	return nil
}

// ActionKind says what the master does at a decision opportunity.
type ActionKind int

// Action kinds.
const (
	// ActionIdle leaves the channel unused until Until.
	ActionIdle ActionKind = iota + 1
	// ActionPollGS polls a Guaranteed Service logical channel.
	ActionPollGS
	// ActionPollBE polls a slave's best-effort logical channel.
	ActionPollBE
)

// Action is the scheduler's decision for one master transmit opportunity.
type Action struct {
	Kind ActionKind
	// Slave is the addressed slave (poll actions).
	Slave SlaveID
	// DownFlow, for ActionPollGS, is the GS down flow whose segment rides
	// in the master's packet, or None for a bare POLL.
	DownFlow FlowID
	// UpFlow, for ActionPollGS, is the GS up flow the slave may answer
	// with, or None when the poll only pushes downlink data.
	UpFlow FlowID
	// Until, for ActionIdle, is the next time the scheduler wants to
	// decide again. Zero or past times mean "next opportunity".
	Until sim.Time
}

// Idle returns an idle action until the given time.
func Idle(until sim.Time) Action { return Action{Kind: ActionIdle, Until: until} }

// PollGS returns a GS poll action for the given slave and flow pair.
func PollGS(slave SlaveID, down, up FlowID) Action {
	return Action{Kind: ActionPollGS, Slave: slave, DownFlow: down, UpFlow: up}
}

// PollBE returns a BE poll action for the given slave.
func PollBE(slave SlaveID) Action { return Action{Kind: ActionPollBE, Slave: slave} }

// Outcome reports the result of an executed poll exchange to the scheduler.
type Outcome struct {
	// Start is when the master began transmitting; End is when the
	// exchange (including the slave's response or response slot) ended.
	Start, End sim.Time
	// Kind is the action kind that produced the exchange.
	Kind ActionKind
	// Slave is the addressed slave.
	Slave SlaveID

	// Down describes the master's packet.
	Down LegOutcome
	// Up describes the slave's response.
	Up LegOutcome

	// UpMoreData is the slave's more-data flag for the polled channel:
	// whether, at the availability cutoff, further segments were queued
	// after the served one.
	UpMoreData bool
}

// LegOutcome describes one direction of an exchange.
type LegOutcome struct {
	// Flow is the flow served (None for POLL/NULL legs or BE polls that
	// found nothing).
	Flow FlowID
	// Type is the baseband packet type sent.
	Type baseband.PacketType
	// Bytes is the number of payload bytes carried (post-loss: zero if
	// the packet was lost on air).
	Bytes int
	// Lost reports an on-air loss (only with lossy radio models).
	Lost bool
	// CompletedPacketSize is the size of the higher-layer packet whose
	// final segment this leg delivered, or zero.
	CompletedPacketSize int
}

// Scheduler is the master's polling brain. Implementations include the
// paper's Guaranteed Service scheduler (internal/core) and the best-effort
// pollers (internal/poller) via adapters.
type Scheduler interface {
	// Decide returns the master's action for the transmit opportunity at
	// now. The piconet calls it whenever the channel is free at a master
	// TX boundary. freeSlots is the number of slots available before the
	// next SCO reservation (a large value when no SCO links exist); the
	// returned exchange must fit within it.
	Decide(now sim.Time, freeSlots int) Action
	// OnOutcome delivers the result of each executed exchange at its end
	// time.
	OnOutcome(o Outcome)
	// OnDownArrival notifies the scheduler that a packet arrived in a
	// master-side (downlink) queue.
	OnDownArrival(flow FlowID, now sim.Time)
}

// Option configures a Piconet.
type Option func(*Piconet)

// WithRadio installs a radio channel model (default: ideal).
func WithRadio(m radio.Model) Option {
	return func(p *Piconet) {
		if m != nil {
			p.radioModel = m
		}
	}
}

// WithARQ enables retransmission of lost segments (used with lossy radio
// models; with an ideal radio it has no effect).
func WithARQ(enabled bool) Option {
	return func(p *Piconet) { p.arq = enabled }
}

// WithLinkFault installs a link-fault oracle: when it reports a slave's
// link down at an exchange start, the exchange fails completely — both
// legs lost, no slave response — and, critically, the radio model is
// never consulted, so the channel's RNG draw sequence and any model
// state are exactly what they would be had the master stayed silent. A nil fn leaves the piconet fault-free with zero per-exchange
// overhead.
func WithLinkFault(fn func(slave SlaveID, now sim.Time) bool) Option {
	return func(p *Piconet) { p.linkDown = fn }
}

// WithDeliveryHook installs a packet-completion observer: fn fires once
// per higher-layer packet when its final segment leaves the queue, with
// the packet's size, its completion instant, and whether it was delivered
// intact (false: the packet was corrupted on air and counted lost). The
// hook is how a scatternet bridge store-and-forwards — a packet completing
// its hop-1 exchange is future-dated into the bridge's hop-2 queue via
// EnqueuePacketAt at exactly the completion instant. The hook must not
// mutate this piconet; it may enqueue into other piconets.
func WithDeliveryHook(fn func(flow FlowID, size int, at sim.Time, delivered bool)) Option {
	return func(p *Piconet) { p.onDelivery = fn }
}

// WithSupervision arms a link supervision timeout: after limit
// consecutive failed ACL exchanges on a slave's link (no decodable slave
// response), the link is declared dead and onDead fires once with the
// slave, the start of the failing streak, and the detection instant. A
// successful exchange re-arms the timeout (the link can die again later,
// firing onDead again). limit <= 0 disables supervision.
func WithSupervision(limit int, onDead func(slave SlaveID, failingSince, at sim.Time)) Option {
	return func(p *Piconet) {
		p.supLimit = limit
		p.onLinkDead = onDead
	}
}

// Piconet is the simulated piconet. Create with New, configure slaves,
// flows and a scheduler, then Start it and run the simulator.
type Piconet struct {
	simulator  *sim.Simulator
	radioModel radio.Model
	arq        bool
	scheduler  Scheduler
	// linkDown, when set, is the fault oracle consulted at each exchange
	// start (see WithLinkFault).
	linkDown func(slave SlaveID, now sim.Time) bool
	// supLimit and onLinkDead implement the link supervision timeout
	// (see WithSupervision).
	supLimit   int
	onLinkDead func(slave SlaveID, failingSince, at sim.Time)
	// onDelivery, when set, observes every higher-layer packet completion
	// (see WithDeliveryHook).
	onDelivery func(flow FlowID, size int, at sim.Time, delivered bool)

	// slaves is indexed by SlaveID; AddSlave admits only ids 1..7, so
	// entry 0 stays nil.
	slaves [baseband.MaxActiveSlaves + 1]*slaveState
	flows  map[FlowID]*flowState
	// flowOrder preserves AddFlow order for deterministic iteration.
	flowOrder []FlowID
	// scoLinks holds the reserved synchronous channels; retiredSCO keeps
	// the meters of links dropped mid-run for reporting.
	scoLinks   []*scoLink
	retiredSCO []*scoLink

	started bool
	// stopped marks a piconet whose master left the scatternet (see
	// Stop): no further decisions run and no wake is ever scheduled.
	stopped   bool
	startTime sim.Time
	// busyUntil is the end of the exchange in progress.
	busyUntil sim.Time
	// wake is the pending idle-decision event, cancelled when an arrival
	// warrants an earlier decision.
	wake sim.Event

	// decideFn, finishPollFn and finishSCOFn are the pre-bound event
	// handlers scheduled on the hot path; binding them once avoids a
	// closure allocation per decision and per exchange. At most one
	// exchange is ever in flight (busyUntil gates the next decision), so
	// its completion payload lives in pendingPoll/pendingSCO rather than
	// in a captured closure environment.
	decideFn     func()
	finishPollFn func()
	finishSCOFn  func()
	pendingPoll  pendingExchange
	pendingSCO   TraceEntry

	// pktFree recycles hlPacket structs (and their segmentation-plan
	// backing arrays) between arrivals.
	pktFree []*hlPacket

	acct   SlotAccount
	nextID uint64
	// tracer, when set, receives every completed exchange.
	tracer Tracer
	// err records the first fatal engine error (invalid scheduler action).
	err error
}

type slaveState struct {
	id SlaveID
	// flows lists the slave's flows in AddFlow order.
	flows []*flowState
	// beRR and beUpRR rotate best-effort flow selection (down and up)
	// across the slave's flows.
	beRR   int
	beUpRR int
	// consecFails counts consecutive failed ACL exchanges on this link;
	// failingSince stamps the start of the current failing streak.
	// linkDead latches after the supervision timeout fired, so it fires
	// once per failure episode (a success clears it).
	consecFails  int
	failingSince sim.Time
	linkDead     bool
}

// New returns an empty piconet bound to the simulator.
func New(s *sim.Simulator, opts ...Option) *Piconet {
	p := &Piconet{
		simulator:  s,
		radioModel: radio.Ideal{},
		flows:      make(map[FlowID]*flowState),
	}
	for _, opt := range opts {
		opt(p)
	}
	p.decideFn = p.decide
	p.finishPollFn = p.finishPoll
	p.finishSCOFn = p.finishSCO
	return p
}

// Now returns the current virtual time.
func (p *Piconet) Now() sim.Time { return p.simulator.Now() }

// AddSlave registers an active slave. Slaves may join mid-run (timeline
// scenarios add flows — and therefore slaves — while the master is
// polling).
func (p *Piconet) AddSlave(id SlaveID) error {
	if id < 1 || int(id) > baseband.MaxActiveSlaves {
		return fmt.Errorf("%w: slave id %d outside 1..%d", ErrInvalidFlow, id, baseband.MaxActiveSlaves)
	}
	if p.slaves[id] != nil {
		return fmt.Errorf("%w: %d", ErrDuplicateSlave, id)
	}
	p.slaves[id] = &slaveState{id: id}
	return nil
}

// slave returns the registered slave with the given id, or nil.
func (p *Piconet) slave(id SlaveID) *slaveState {
	if id < 1 || int(id) > baseband.MaxActiveSlaves {
		return nil
	}
	return p.slaves[id]
}

// AddFlow registers a flow. The slave must already exist. Flows may be
// added after Start (online admission); callers that install flows mid-run
// must refresh the scheduler's view themselves (see core.Scheduler.Replan
// and RefreshBE).
func (p *Piconet) AddFlow(cfg FlowConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	sl := p.slave(cfg.Slave)
	if sl == nil {
		return fmt.Errorf("%w: %d", ErrUnknownSlave, cfg.Slave)
	}
	if _, dup := p.flows[cfg.ID]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateFlow, cfg.ID)
	}
	fs := newFlowState(p, cfg)
	p.flows[cfg.ID] = fs
	p.flowOrder = append(p.flowOrder, cfg.ID)
	sl.flows = append(sl.flows, fs)
	return nil
}

// RetireFlow takes a flow out of service: queued packets are dropped, no
// further packets may be enqueued and no poll may address it. The flow's
// configuration and measurement state stay readable (Flows still lists it,
// its meters and delay statistics keep their final values), so a run's
// report covers flows that left mid-run. Retiring is permanent; re-adding
// the same id is an error.
func (p *Piconet) RetireFlow(id FlowID) error {
	fs, ok := p.flows[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownFlow, id)
	}
	if fs.retired {
		return fmt.Errorf("%w: %d", ErrFlowRetired, id)
	}
	fs.retired = true
	now := p.simulator.Now()
	for fs.qlen() > 0 {
		pkt := fs.qpop()
		if pkt.arrival > now {
			// A batched source pre-counted this future packet; the flow
			// leaves before it ever arrives, so it never existed — the
			// per-packet path would not have generated it.
			fs.offered.Unadd(pkt.size)
		}
		p.freePacket(pkt)
	}
	return nil
}

// SuspendFlow takes a flow out of service reversibly: its queue is
// flushed (packets stuck behind a dead link must not complete late once
// the link heals), no packet may be enqueued and no poll may address it —
// but, unlike RetireFlow, a later ResumeFlow puts it back in service.
// The supervision/recovery machinery uses the suspend/resume pair; meters
// and delay statistics keep accumulating across the gap.
func (p *Piconet) SuspendFlow(id FlowID) error {
	fs, ok := p.flows[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownFlow, id)
	}
	if fs.retired {
		return fmt.Errorf("%w: %d", ErrFlowRetired, id)
	}
	if fs.suspended {
		return fmt.Errorf("%w: %d", ErrFlowSuspended, id)
	}
	fs.suspended = true
	now := p.simulator.Now()
	for fs.qlen() > 0 {
		pkt := fs.qpop()
		if pkt.arrival > now {
			// Pre-counted future arrival of a batched source: the flow is
			// out of service before it exists, so it never existed.
			fs.offered.Unadd(pkt.size)
		}
		p.freePacket(pkt)
	}
	return nil
}

// ResumeFlow puts a suspended flow back in service: packets may be
// enqueued and polls may address it again. The resumed flow starts with
// an empty queue.
func (p *Piconet) ResumeFlow(id FlowID) error {
	fs, ok := p.flows[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownFlow, id)
	}
	if fs.retired {
		return fmt.Errorf("%w: %d", ErrFlowRetired, id)
	}
	fs.suspended = false
	return nil
}

// FlowSuspended reports whether the flow exists and is suspended.
func (p *Piconet) FlowSuspended(id FlowID) bool {
	fs, ok := p.flows[id]
	return ok && fs.suspended
}

// PruneFutureArrivals drops every queued packet whose arrival stamp is
// after cutoff, uncounting it from its flow's offered meter. Scatternet
// piconet removal uses it: batched sources pre-enqueue future arrivals,
// and a piconet that leaves at t must report exactly the offered load a
// per-packet source would have generated by t.
func (p *Piconet) PruneFutureArrivals(cutoff sim.Time) {
	for _, id := range p.flowOrder {
		fs := p.flows[id]
		for fs.qlen() > 0 {
			tail := fs.qat(fs.qlen() - 1)
			if tail.arrival <= cutoff {
				break
			}
			fs.offered.Unadd(tail.size)
			p.freePacket(fs.qpopTail())
		}
	}
}

// FlowActive reports whether the flow exists and has not been retired.
func (p *Piconet) FlowActive(id FlowID) bool {
	fs, ok := p.flows[id]
	return ok && !fs.retired
}

// Kick pulls the master's next decision forward to the next transmit
// opportunity. Callers that change the topology mid-run (adding a flow or
// an SCO reservation) use it so an idling master reacts immediately
// instead of sleeping through the change.
func (p *Piconet) Kick() {
	if p.started && !p.stopped {
		p.wakeIfIdle()
	}
}

// Stop halts the master's decision loop permanently: the pending wake is
// cancelled, no further poll or SCO exchange starts, and an exchange in
// flight completes its accounting without triggering another decision.
// Flow statistics stay readable, so a piconet removed from a scatternet
// mid-run still reports. Stopping is idempotent and permanent.
func (p *Piconet) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	if p.wake.Pending() {
		p.simulator.Cancel(p.wake)
		p.wake = sim.Event{}
	}
}

// Stopped reports whether Stop was called.
func (p *Piconet) Stopped() bool { return p.stopped }

// SetScheduler installs the master's scheduler. Must be called before Start.
func (p *Piconet) SetScheduler(s Scheduler) { p.scheduler = s }

// Start begins the master's decision loop at the current simulation time.
func (p *Piconet) Start() error {
	if p.started {
		return ErrAlreadyStarted
	}
	if p.scheduler == nil {
		return ErrNoScheduler
	}
	p.started = true
	p.startTime = p.simulator.Now()
	p.scheduleDecision(p.startTime)
	return nil
}

// Slaves returns the registered slave ids in ascending order.
func (p *Piconet) Slaves() []SlaveID {
	out := make([]SlaveID, 0, baseband.MaxActiveSlaves)
	for _, sl := range p.slaves {
		if sl != nil {
			out = append(out, sl.id)
		}
	}
	return out
}

// Flows returns all flow ids in AddFlow order.
func (p *Piconet) Flows() []FlowID {
	return append([]FlowID(nil), p.flowOrder...)
}

// FlowsAt returns the slave's flow ids in AddFlow order.
func (p *Piconet) FlowsAt(slave SlaveID) []FlowID {
	sl := p.slave(slave)
	if sl == nil {
		return nil
	}
	out := make([]FlowID, len(sl.flows))
	for i, fs := range sl.flows {
		out[i] = fs.cfg.ID
	}
	return out
}

// FlowConfig returns the configuration of a flow.
func (p *Piconet) FlowConfig(id FlowID) (FlowConfig, bool) {
	fs, ok := p.flows[id]
	if !ok {
		return FlowConfig{}, false
	}
	return fs.cfg, true
}

// DownQueueLen returns the number of higher-layer packets queued for a
// master-to-slave flow and already arrived (master-side knowledge: a
// batched source's future-dated arrivals do not exist for the master
// until their stamp passes). Schedulers ask HasBEDownBacklog instead;
// tests use this count as its reference.
func (p *Piconet) DownQueueLen(flow FlowID) int {
	fs, ok := p.flows[flow]
	if !ok || fs.cfg.Dir != Down {
		return 0
	}
	return fs.availableLen(p.simulator.Now())
}

// HasBEDownBacklog reports whether the master holds a best-effort packet
// for the slave's downlink that has arrived by now: the head of an
// in-service best-effort down flow is available (master-side knowledge).
// It is one scan of the slave's flows, so a poller may ask it for every
// slave at every decision.
func (p *Piconet) HasBEDownBacklog(slave SlaveID) bool {
	sl := p.slave(slave)
	if sl == nil {
		return false
	}
	now := p.simulator.Now()
	for _, fs := range sl.flows {
		if fs.cfg.Class == BestEffort && fs.cfg.Dir == Down && !fs.retired && !fs.suspended &&
			fs.headAvailable(now) {
			return true
		}
	}
	return false
}

// DownHeadAvailable reports whether the head packet of a down flow was
// available at the given cutoff time (master-side knowledge).
func (p *Piconet) DownHeadAvailable(flow FlowID, cutoff sim.Time) bool {
	fs, ok := p.flows[flow]
	if !ok || fs.cfg.Dir != Down {
		return false
	}
	return fs.headAvailable(cutoff)
}

// OracleUpQueueLen returns the number of higher-layer packets queued at the
// slave for an up flow. It is an oracle accessor for tests and verification;
// schedulers must not call it (the real master cannot see slave queues).
func (p *Piconet) OracleUpQueueLen(flow FlowID) int {
	fs, ok := p.flows[flow]
	if !ok || fs.cfg.Dir != Up {
		return 0
	}
	return fs.qlen()
}

// FlowDelayStats returns the higher-layer packet delay statistics of a flow
// (arrival to delivery of the final segment).
func (p *Piconet) FlowDelayStats(flow FlowID) (*stats.DurationStats, bool) {
	fs, ok := p.flows[flow]
	if !ok {
		return nil, false
	}
	return fs.delay, true
}

// FlowDelivered returns the delivery meter of a flow (bytes and packets that
// completed reassembly).
func (p *Piconet) FlowDelivered(flow FlowID) (*stats.Meter, bool) {
	fs, ok := p.flows[flow]
	if !ok {
		return nil, false
	}
	return fs.delivered, true
}

// FlowOffered returns the offered-load meter of a flow (generated packets).
func (p *Piconet) FlowOffered(flow FlowID) (*stats.Meter, bool) {
	fs, ok := p.flows[flow]
	if !ok {
		return nil, false
	}
	return fs.offered, true
}

// FlowLost returns the loss meter of a flow (higher-layer packets corrupted
// on air; nonzero only with lossy radio models and ARQ disabled).
func (p *Piconet) FlowLost(flow FlowID) (*stats.Meter, bool) {
	fs, ok := p.flows[flow]
	if !ok {
		return nil, false
	}
	return fs.lost, true
}

// SlaveThroughputKbps returns the delivered throughput of all flows of the
// slave (both directions) over the elapsed time, in kilobits per second.
func (p *Piconet) SlaveThroughputKbps(slave SlaveID, elapsed time.Duration) float64 {
	sl := p.slave(slave)
	if sl == nil || elapsed <= 0 {
		return 0
	}
	total := 0.0
	for _, fs := range sl.flows {
		total += fs.delivered.Kbps(elapsed)
	}
	return total
}

// SlotAccount returns a snapshot of the slot usage accounting, with idle
// time computed against the given end-of-measurement time.
func (p *Piconet) SlotAccount(end sim.Time) SlotAccount {
	acct := p.acct
	elapsed := end - p.startTime
	if elapsed < 0 {
		elapsed = 0
	}
	total := int64(elapsed / baseband.SlotDuration)
	busy := acct.GSData + acct.GSOverhead + acct.BEData + acct.BEOverhead +
		acct.Retransmit + acct.SCO
	if total > busy {
		acct.Idle = total - busy
	}
	acct.Total = total
	return acct
}

// SlotAccount tallies slot usage by purpose. All values are slot counts.
type SlotAccount struct {
	// GSData is slots spent carrying Guaranteed Service payload.
	GSData int64
	// GSOverhead is slots spent on GS polling overhead: POLL packets,
	// NULL responses and unsuccessful GS polls.
	GSOverhead int64
	// BEData is slots spent carrying best-effort payload.
	BEData int64
	// BEOverhead is slots spent on BE polling overhead.
	BEOverhead int64
	// Retransmit is slots consumed re-sending lost segments (lossy radio
	// only).
	Retransmit int64
	// SCO is slots consumed by reserved synchronous links.
	SCO int64
	// Idle is slots in which the channel was unused.
	Idle int64
	// Total is the total elapsed slots of the measurement.
	Total int64
}

// GSShare returns the fraction of slots used for GS (data plus overhead).
func (a SlotAccount) GSShare() float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.GSData+a.GSOverhead) / float64(a.Total)
}

// String summarises the account.
func (a SlotAccount) String() string {
	return fmt.Sprintf("slots{total=%d gsData=%d gsOvh=%d beData=%d beOvh=%d rtx=%d sco=%d idle=%d}",
		a.Total, a.GSData, a.GSOverhead, a.BEData, a.BEOverhead, a.Retransmit, a.SCO, a.Idle)
}
