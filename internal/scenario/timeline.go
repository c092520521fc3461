package scenario

import (
	"fmt"
	"time"

	"bluegs/internal/piconet"
)

// Timeline operation names (TimelineEvent.Op, AdmissionRecord.Op).
const (
	OpAddGS         = "add-gs"
	OpAddBE         = "add-be"
	OpRemoveFlow    = "remove-flow"
	OpAddSCO        = "add-sco"
	OpDropSCO       = "drop-sco"
	OpAddPiconet    = "add-piconet"
	OpRemovePiconet = "remove-piconet"
	// OpRederate records an interference-aware admission re-derate of one
	// surviving piconet after the scatternet changed size (no timeline
	// event constructs it: piconet churn emits it as a side effect when
	// Spec.InterferenceAwareAdmission is on). A rejected rederate means
	// the new collision estimate cannot be served by the piconet's
	// existing contracts — its bounds stay at the previous derate.
	OpRederate = "rederate"
	// OpHandoff is the make-before-break move of a GS flow to another
	// piconet: admitted at the target (interference-derated) before
	// anything is released at the source. Constructed by a move_flow
	// timeline event or emitted by the handoff recovery policy.
	OpHandoff = "move-flow"
	// OpSuspend records the supervision timeout declaring a flow's link
	// dead (no timeline event constructs it). The record's Latency is the
	// detection latency: link-death declaration minus first failed poll.
	OpSuspend = "suspend-flow"
	// OpDegrade records the graceful-degradation renegotiation of a
	// suspended flow at a looser delay bound (no timeline event
	// constructs it). A rejected degrade leaves the flow suspended.
	OpDegrade = "degrade-flow"
	// OpCrash records a master crash from the fault plan (no timeline
	// event constructs it): the piconet halts and its flows are orphaned.
	OpCrash = "master-crash"
	// OpAddRoute requests admission of an end-to-end route: every hop runs
	// the admission test at its share of the end-to-end budget (derated by
	// its bridge's residency duty cycle), atomically — a refusal at any
	// hop rolls the earlier hops back. Accepted routes log one record per
	// hop; a rejection logs the failing hop.
	OpAddRoute = "add-route"
	// OpRemoveRoute retires a route end-to-end: the source stops and every
	// hop's reservation is released (one record per hop).
	OpRemoveRoute = "remove-route"
	// OpRenegotiate re-runs the admission test of a healthy Guaranteed
	// Service flow at a new delay target mid-run. The negotiation is
	// atomic: a refusal leaves the old contract untouched.
	OpRenegotiate = "renegotiate-flow"
)

// MoveFlow is the payload of a move_flow timeline event: hand the flow
// off to the named piconet ("" resolves like RecoverySpec.HandoffTarget —
// the spec's configured target, else the first other live piconet).
type MoveFlow struct {
	Flow piconet.FlowID
	To   string
}

// RenegotiateFlow is the payload of a renegotiate_flow timeline event:
// re-admit the flow at the new delay target (tighter or looser).
type RenegotiateFlow struct {
	Flow   piconet.FlowID
	Target time.Duration
}

// TimelineEvent is one scheduled mid-run change of a scenario. Exactly one
// operation field must be set; events apply in slice order when they share
// an instant. Build events with the *At constructors.
//
// Piconet addressing: in scatternet specs the Piconet field names the
// piconet a flow or SCO operation targets; an empty field targets the
// first piconet (which is also the only piconet of a flat spec, so flat
// timelines need no addressing at all). AddPiconet and RemovePiconet act
// on the scatternet itself and ignore the Piconet field.
type TimelineEvent struct {
	// At is the simulated time of the change, relative to the run start.
	At time.Duration
	// Piconet addresses the target piconet of a flow or SCO operation by
	// name ("" means the spec's first piconet).
	Piconet string
	// AddGS requests admission of a Guaranteed Service flow at At: the
	// paper's Fig. 3 admission test runs against the then-current flow
	// set of the target piconet and either installs the flow —
	// re-planning every stream's polling — or records a rejection in
	// Result.Admissions.
	AddGS *GSFlow
	// AddBE installs a best-effort flow (no admission test; best effort
	// takes whatever is left over).
	AddBE *BEFlow
	// Remove retires a flow (GS or BE) of the target piconet: its source
	// stops, queued packets are dropped, and — for GS — its reserved
	// bandwidth is released and the remaining flows re-planned. Removing
	// a flow whose admission was rejected records a no-op.
	Remove piconet.FlowID
	// AddSCO requests a synchronous voice link. It is rejected when the
	// link does not fit the piconet's SCO capacity or when the admitted
	// Guaranteed Service set could no longer be scheduled around the new
	// reservations.
	AddSCO *SCOLinkSpec
	// DropSCO releases the slave's synchronous link.
	DropSCO piconet.SlaveID
	// AddPiconet brings a whole new piconet into the scatternet at At:
	// its static GS set is planned offline (clamped like a run-start
	// plan), its master starts polling, and from then on timeline events
	// may target it by name. Names must be unique across the run.
	AddPiconet *PiconetSpec
	// RemovePiconet takes the named piconet out of service: its sources
	// stop, its master polls no more, and — with interference enabled —
	// it stops colliding with the others. Its statistics stay in the
	// result, final as of the removal.
	RemovePiconet string
	// Move hands a Guaranteed Service flow of the target piconet off to
	// another piconet make-before-break: the destination runs the
	// admission test (at its own interference derate) and installs the
	// flow before the source releases its reservation, so a refusal
	// leaves the flow untouched at the source.
	Move *MoveFlow
	// AddRoute requests admission of an end-to-end route across the
	// scatternet. Like AddPiconet/RemovePiconet it acts on the scatternet
	// itself (the route names its own source piconet) and ignores the
	// Piconet field.
	AddRoute *RouteSpec
	// RemoveRoute retires the route with this flow id end-to-end.
	RemoveRoute piconet.FlowID
	// Renegotiate re-admits a Guaranteed Service flow of the target
	// piconet at a new delay target. Routed hop flows are refused: their
	// targets follow from the route's end-to-end budget.
	Renegotiate *RenegotiateFlow
}

// Op names the event's operation ("" for an invalid event).
func (e TimelineEvent) Op() string {
	switch {
	case e.AddGS != nil:
		return OpAddGS
	case e.AddBE != nil:
		return OpAddBE
	case e.Remove != piconet.None:
		return OpRemoveFlow
	case e.AddSCO != nil:
		return OpAddSCO
	case e.DropSCO != 0:
		return OpDropSCO
	case e.AddPiconet != nil:
		return OpAddPiconet
	case e.RemovePiconet != "":
		return OpRemovePiconet
	case e.Move != nil:
		return OpHandoff
	case e.AddRoute != nil:
		return OpAddRoute
	case e.RemoveRoute != piconet.None:
		return OpRemoveRoute
	case e.Renegotiate != nil:
		return OpRenegotiate
	}
	return ""
}

// ops counts the set operation fields (a valid event has exactly one).
func (e TimelineEvent) ops() int {
	n := 0
	if e.AddGS != nil {
		n++
	}
	if e.AddBE != nil {
		n++
	}
	if e.Remove != piconet.None {
		n++
	}
	if e.AddSCO != nil {
		n++
	}
	if e.DropSCO != 0 {
		n++
	}
	if e.AddPiconet != nil {
		n++
	}
	if e.RemovePiconet != "" {
		n++
	}
	if e.Move != nil {
		n++
	}
	if e.AddRoute != nil {
		n++
	}
	if e.RemoveRoute != piconet.None {
		n++
	}
	if e.Renegotiate != nil {
		n++
	}
	return n
}

// subject returns the flow and slave a flow/SCO operation acts on (zero
// where the operation has none) — the identifiers a rejection record
// carries when the event cannot even reach its piconet.
func (e TimelineEvent) subject() (piconet.FlowID, piconet.SlaveID) {
	switch {
	case e.AddGS != nil:
		return e.AddGS.ID, e.AddGS.Slave
	case e.AddBE != nil:
		return e.AddBE.ID, e.AddBE.Slave
	case e.Remove != piconet.None:
		return e.Remove, 0
	case e.AddSCO != nil:
		return piconet.None, e.AddSCO.Slave
	case e.DropSCO != 0:
		return piconet.None, e.DropSCO
	case e.Move != nil:
		return e.Move.Flow, 0
	case e.AddRoute != nil:
		return e.AddRoute.ID, e.AddRoute.Slave
	case e.RemoveRoute != piconet.None:
		return e.RemoveRoute, 0
	case e.Renegotiate != nil:
		return e.Renegotiate.Flow, 0
	}
	return piconet.None, 0
}

// For returns the event readdressed to the named piconet.
func (e TimelineEvent) For(piconet string) TimelineEvent {
	e.Piconet = piconet
	return e
}

// AddGSAt schedules a Guaranteed Service flow arrival.
func AddGSAt(at time.Duration, g GSFlow) TimelineEvent {
	return TimelineEvent{At: at, AddGS: &g}
}

// AddBEAt schedules a best-effort flow arrival.
func AddBEAt(at time.Duration, b BEFlow) TimelineEvent {
	return TimelineEvent{At: at, AddBE: &b}
}

// RemoveAt schedules a flow departure.
func RemoveAt(at time.Duration, id piconet.FlowID) TimelineEvent {
	return TimelineEvent{At: at, Remove: id}
}

// AddSCOAt schedules a synchronous voice link arrival.
func AddSCOAt(at time.Duration, l SCOLinkSpec) TimelineEvent {
	return TimelineEvent{At: at, AddSCO: &l}
}

// DropSCOAt schedules a synchronous voice link departure.
func DropSCOAt(at time.Duration, slave piconet.SlaveID) TimelineEvent {
	return TimelineEvent{At: at, DropSCO: slave}
}

// AddPiconetAt schedules a piconet joining the scatternet.
func AddPiconetAt(at time.Duration, ps PiconetSpec) TimelineEvent {
	return TimelineEvent{At: at, AddPiconet: &ps}
}

// RemovePiconetAt schedules a piconet leaving the scatternet.
func RemovePiconetAt(at time.Duration, name string) TimelineEvent {
	return TimelineEvent{At: at, RemovePiconet: name}
}

// MoveFlowAt schedules a make-before-break handoff of a Guaranteed
// Service flow to another piconet (to "" picks the configured or first
// other live piconet). Address the source piconet with For.
func MoveFlowAt(at time.Duration, flow piconet.FlowID, to string) TimelineEvent {
	return TimelineEvent{At: at, Move: &MoveFlow{Flow: flow, To: to}}
}

// AddRouteAt schedules an end-to-end route arrival.
func AddRouteAt(at time.Duration, rt RouteSpec) TimelineEvent {
	return TimelineEvent{At: at, AddRoute: &rt}
}

// RemoveRouteAt schedules a route departure.
func RemoveRouteAt(at time.Duration, id piconet.FlowID) TimelineEvent {
	return TimelineEvent{At: at, RemoveRoute: id}
}

// RenegotiateAt schedules a mid-run delay-target renegotiation of a
// Guaranteed Service flow. Address the flow's piconet with For.
func RenegotiateAt(at time.Duration, flow piconet.FlowID, target time.Duration) TimelineEvent {
	return TimelineEvent{At: at, Renegotiate: &RenegotiateFlow{Flow: flow, Target: target}}
}

// AdmissionRecord is one entry of a run's online admission log: the
// outcome of one timeline event.
type AdmissionRecord struct {
	// At is the simulated time the event applied.
	At time.Duration
	// Op is the operation (see the Op* constants).
	Op string
	// Piconet names the piconet the operation acted on ("" in flat
	// single-piconet runs).
	Piconet string
	// Flow is the affected flow (flow operations only).
	Flow piconet.FlowID
	// Slave is the affected slave.
	Slave piconet.SlaveID
	// Accepted reports whether the operation took effect.
	Accepted bool
	// Bound and Rate are the admitted Guaranteed Service contract at
	// admission time (add-gs only).
	Bound time.Duration
	Rate  float64
	// Reason explains a rejection (and, for accepted handoffs, names the
	// source piconet).
	Reason string
	// Latency is the supervision detection latency: how long the link had
	// been failing when it was declared dead (suspend-flow only).
	Latency time.Duration
	// Route and Hop tie the record to one hop of an end-to-end route
	// (route operations only: Hop counts from 1 in path order).
	Route string
	Hop   int
}

// validateTimeline statically checks a timeline against the spec: one
// operation per event, non-negative times, piconet targets that name a
// piconet the scenario can ever create, unique flow ids per piconet
// across the static sets and all additions, and removals that reference
// a flow the scenario can ever install there.
func validateTimeline(spec Spec) error {
	// Piconet names the scenario can ever have: the initial set plus
	// every add_piconet. Whether a name is live when an event fires is a
	// runtime question (recorded as a rejection, like a full piconet
	// refusing a flow) — what validation rejects is a name that can
	// never exist.
	known := make(map[string]map[piconet.FlowID]bool)
	for _, ps := range spec.piconetSpecs() {
		known[ps.Name] = ps.flowIDSet()
	}
	// Static routes claim their flow id in every traversed piconet (and in
	// the route id space), so timeline flows cannot collide with a hop.
	routeIDs := make(map[piconet.FlowID]bool)
	for _, rt := range spec.Routes {
		routeIDs[rt.ID] = true
		hops, err := spec.routeHops(rt)
		if err != nil {
			continue // validateBridges already rejected the spec
		}
		for _, h := range hops {
			if flows, ok := known[h.Piconet]; ok {
				if flows[rt.ID] {
					return fmt.Errorf("%w: route %d: flow id %d already used in piconet %q",
						ErrBadSpec, rt.ID, rt.ID, h.Piconet)
				}
				flows[rt.ID] = true
			}
		}
	}
	pnSet := func() map[string]bool {
		pns := make(map[string]bool, len(known))
		for name := range known {
			pns[name] = true
		}
		return pns
	}
	for i, ev := range spec.Timeline {
		if n := ev.ops(); n != 1 {
			return fmt.Errorf("%w: timeline[%d] sets %d operations (want exactly 1)", ErrBadSpec, i, n)
		}
		if ev.At < 0 {
			return fmt.Errorf("%w: timeline[%d] at %v is negative", ErrBadSpec, i, ev.At)
		}
		// Scatternet operations first: they change the name set.
		switch {
		case ev.AddPiconet != nil:
			ps := *ev.AddPiconet
			if ps.Name == "" {
				return fmt.Errorf("%w: timeline[%d] add-piconet with no name", ErrBadSpec, i)
			}
			if _, dup := known[ps.Name]; dup {
				return fmt.Errorf("%w: timeline[%d] duplicate piconet name %q", ErrBadSpec, i, ps.Name)
			}
			if err := ps.validateFlows(); err != nil {
				return fmt.Errorf("timeline[%d] add-piconet %q: %w", i, ps.Name, err)
			}
			known[ps.Name] = ps.flowIDSet()
			continue
		case ev.RemovePiconet != "":
			if _, ok := known[ev.RemovePiconet]; !ok {
				return fmt.Errorf("%w: timeline[%d] removes unknown piconet %q", ErrBadSpec, i, ev.RemovePiconet)
			}
			continue
		case ev.AddRoute != nil:
			// Routes are scatternet-level (the route names its own source
			// piconet); validateRoute claims the id across all hops.
			if spec.BatchTraffic {
				return fmt.Errorf("%w: timeline[%d]: routes use the per-packet source path; BatchTraffic is incompatible with add_route", ErrBadSpec, i)
			}
			if err := spec.validateRoute(*ev.AddRoute, pnSet(), routeIDs, known); err != nil {
				return fmt.Errorf("timeline[%d]: %w", i, err)
			}
			continue
		case ev.RemoveRoute != piconet.None:
			if !routeIDs[ev.RemoveRoute] {
				return fmt.Errorf("%w: timeline[%d] removes unknown route %d", ErrBadSpec, i, ev.RemoveRoute)
			}
			continue
		}
		// Flow and SCO operations: WithDefaults resolved the target.
		target := ev.Piconet
		flows, ok := known[target]
		if !ok {
			return fmt.Errorf("%w: timeline[%d] targets unknown piconet %q", ErrBadSpec, i, target)
		}
		switch {
		case ev.AddGS != nil:
			if ev.AddGS.ID == piconet.None {
				return fmt.Errorf("%w: timeline[%d] add-gs with zero flow id", ErrBadSpec, i)
			}
			if flows[ev.AddGS.ID] {
				return fmt.Errorf("%w: timeline[%d] duplicate flow id %d", ErrBadSpec, i, ev.AddGS.ID)
			}
			if err := validDir(ev.AddGS.ID, ev.AddGS.Dir); err != nil {
				return fmt.Errorf("timeline[%d]: %w", i, err)
			}
			flows[ev.AddGS.ID] = true
		case ev.AddBE != nil:
			if ev.AddBE.ID == piconet.None {
				return fmt.Errorf("%w: timeline[%d] add-be with zero flow id", ErrBadSpec, i)
			}
			if flows[ev.AddBE.ID] {
				return fmt.Errorf("%w: timeline[%d] duplicate flow id %d", ErrBadSpec, i, ev.AddBE.ID)
			}
			if err := validDir(ev.AddBE.ID, ev.AddBE.Dir); err != nil {
				return fmt.Errorf("timeline[%d]: %w", i, err)
			}
			flows[ev.AddBE.ID] = true
		case ev.Remove != piconet.None:
			if !flows[ev.Remove] {
				return fmt.Errorf("%w: timeline[%d] removes unknown flow %d", ErrBadSpec, i, ev.Remove)
			}
		case ev.AddSCO != nil:
			if !ev.AddSCO.Type.IsSCO() {
				return fmt.Errorf("%w: timeline[%d] SCO type %v", ErrBadSpec, i, ev.AddSCO.Type)
			}
		case ev.Move != nil:
			if ev.Move.Flow == piconet.None {
				return fmt.Errorf("%w: timeline[%d] move-flow with zero flow id", ErrBadSpec, i)
			}
			if !flows[ev.Move.Flow] {
				return fmt.Errorf("%w: timeline[%d] moves unknown flow %d", ErrBadSpec, i, ev.Move.Flow)
			}
			if ev.Move.To != "" {
				if ev.Move.To == target {
					return fmt.Errorf("%w: timeline[%d] moves flow %d to its own piconet", ErrBadSpec, i, ev.Move.Flow)
				}
				toFlows, ok := known[ev.Move.To]
				if !ok {
					return fmt.Errorf("%w: timeline[%d] moves flow to unknown piconet %q", ErrBadSpec, i, ev.Move.To)
				}
				if toFlows[ev.Move.Flow] {
					return fmt.Errorf("%w: timeline[%d] duplicate flow id %d at %q", ErrBadSpec, i, ev.Move.Flow, ev.Move.To)
				}
				toFlows[ev.Move.Flow] = true
			}
			// The id stays claimed at the source too: its retired remnant
			// keeps the id unusable there.
		case ev.Renegotiate != nil:
			if ev.Renegotiate.Flow == piconet.None {
				return fmt.Errorf("%w: timeline[%d] renegotiate-flow with zero flow id", ErrBadSpec, i)
			}
			if !flows[ev.Renegotiate.Flow] {
				return fmt.Errorf("%w: timeline[%d] renegotiates unknown flow %d", ErrBadSpec, i, ev.Renegotiate.Flow)
			}
			if ev.Renegotiate.Target <= 0 {
				return fmt.Errorf("%w: timeline[%d] renegotiate-flow with non-positive target", ErrBadSpec, i)
			}
		}
	}
	return nil
}
