// Package scenario wires complete simulation scenarios: flow sets, traffic
// sources, admission, scheduler and measurement. It provides the paper's
// §4.1 evaluation setup (Fig. 4) as a preset and a generic runner used by
// the experiment harness and the command-line tools.
//
// A Spec is pure data: every field — flows, poller and radio selection
// (by name plus parameters), SCO links and the Timeline of mid-run
// changes — is serializable (see Marshal/Unmarshal) and enters the spec's
// canonical fingerprint. Runtime-only attachments (a live Tracer, a
// pre-seeded radio model instance) travel separately through Hooks and
// RunWith. The named presets form a static table (Lookup/Names).
//
// Scatternet specs may additionally declare Bridges — devices
// time-sharing several piconets on a periodic residency schedule — and
// Routes, multi-hop guaranteed flows store-and-forwarded across those
// bridges. A route's end-to-end delay budget is split across its hops
// and each hop is admitted (atomically, all-or-nothing) against its
// residency-derated share; end-to-end measurements land in
// Result.Routes. See internal/README.md for the full bridge model.
package scenario

import (
	"errors"
	"fmt"
	"time"

	"bluegs/internal/admission"
	"bluegs/internal/baseband"
	"bluegs/internal/core"
	"bluegs/internal/faults"
	"bluegs/internal/piconet"
	"bluegs/internal/poller"
	"bluegs/internal/radio"
	"bluegs/internal/stats"
	"bluegs/internal/tspec"
)

// Errors returned by the runner.
var (
	ErrBadSpec = errors.New("scenario: invalid specification")
)

// GSFlow describes one Guaranteed Service flow and its CBR source.
type GSFlow struct {
	ID    piconet.FlowID
	Slave piconet.SlaveID
	Dir   piconet.Direction
	// Interval is the source's packet spacing; MinSize/MaxSize its
	// uniform packet size support. The TSpec is derived per §4.1.
	Interval time.Duration
	MinSize  int
	MaxSize  int
	// Phase offsets the source start (relative to the flow's
	// installation: run start for static flows, the timeline event for
	// flows added mid-run).
	Phase time.Duration
	// Allowed overrides the spec-wide baseband type set when non-empty.
	Allowed baseband.TypeSet
}

// Spec returns the flow's token bucket specification.
func (g GSFlow) Spec() tspec.TSpec {
	return tspec.CBR(g.Interval, g.MinSize, g.MaxSize)
}

// BEFlow describes one best-effort flow and its CBR source.
type BEFlow struct {
	ID    piconet.FlowID
	Slave piconet.SlaveID
	Dir   piconet.Direction
	// RateKbps is the offered load; PacketSize the fixed packet size.
	RateKbps   float64
	PacketSize int
	Phase      time.Duration
	// Allowed overrides the spec-wide baseband type set when non-empty
	// (e.g. DH1-only flows that fit between SCO reservations).
	Allowed baseband.TypeSet
}

// SCOLinkSpec reserves a synchronous voice channel to a slave.
type SCOLinkSpec struct {
	Slave piconet.SlaveID
	Type  baseband.PacketType
}

// BEPollerKind names a best-effort poller for specs.
type BEPollerKind string

// Best-effort poller kinds.
const (
	BEPFP        BEPollerKind = "pfp"
	BERoundRobin BEPollerKind = "round-robin"
	BEExhaustive BEPollerKind = "exhaustive-rr"
	BEFEP        BEPollerKind = "fep"
	BEEDC        BEPollerKind = "edc"
	BEDemand     BEPollerKind = "demand"
	BEHOL        BEPollerKind = "hol-priority"
)

// PollerParams carries the per-kind tuning parameters of a best-effort
// poller in declarative form, so poller construction has a single path
// shared by the runner and the JSON codec.
type PollerParams struct {
	// PFPThreshold overrides the PFP active-prediction threshold when
	// positive (meaningful with the PFP poller only).
	PFPThreshold float64 `json:"pfp_threshold,omitempty"`
}

// NewBEPoller constructs a poller by kind and parameters (empty kind
// means PFP).
func NewBEPoller(kind BEPollerKind, params PollerParams) (poller.Poller, error) {
	switch kind {
	case "", BEPFP:
		if params.PFPThreshold > 0 {
			return poller.NewPFP(nil, poller.WithActiveThreshold(params.PFPThreshold)), nil
		}
		return poller.NewPFP(nil), nil
	case BERoundRobin:
		return &poller.RoundRobin{}, nil
	case BEExhaustive:
		return &poller.Exhaustive{}, nil
	case BEFEP:
		return &poller.FEP{}, nil
	case BEEDC:
		return poller.NewEDC(0, 0), nil
	case BEDemand:
		return poller.NewDemand(0), nil
	case BEHOL:
		return poller.NewHOL(nil), nil
	default:
		return nil, fmt.Errorf("%w: unknown BE poller %q", ErrBadSpec, kind)
	}
}

// Spec is a complete scenario specification. It is pure data: runtime
// observers attach through Hooks (see RunWith), and the radio model is
// named declaratively so every run constructs a fresh instance.
type Spec struct {
	// Name labels reports.
	Name string
	// GS and BE are the static flow sets, installed before the run
	// starts. The Timeline adds and removes flows mid-run.
	GS []GSFlow
	BE []BEFlow
	// DelayTarget is the delay bound requested for every GS flow.
	// Static flows below the supportable minimum are clamped to the
	// tightest achievable bound (see admission.PlanForDelayBestEffort);
	// timeline flows whose target cannot be met are rejected instead
	// (the paper's online admission protocol).
	DelayTarget time.Duration
	// Mode is the planner mode (default VariableInterval).
	Mode core.Mode
	// Rules are the active §3.2 improvements (default AllImprovements;
	// meaningful in VariableInterval mode). Set RulesSet to use a zero
	// value.
	Rules    core.Improvements
	RulesSet bool
	// BEPoller selects the best-effort discipline (default PFP);
	// PFPThreshold is its PollerParams.PFPThreshold.
	BEPoller     BEPollerKind
	PFPThreshold float64
	// Allowed is the baseband type set for all flows (default DH1+DH3).
	Allowed baseband.TypeSet
	// Duration is the simulated time (default 30 s).
	Duration time.Duration
	// Seed drives all randomness (default 1).
	Seed int64
	// Radio names the channel model (default ideal); ARQ enables
	// retransmissions; LossRecovery additionally grants lost GS segments
	// recovery polls from the saved bandwidth (paper future work).
	Radio        RadioSpec
	ARQ          bool
	LossRecovery bool
	// WithoutPiggybacking disables pair detection in admission.
	WithoutPiggybacking bool
	// SCO lists synchronous links reserved from the start. With SCO
	// present, direction-aware admission is usually required so
	// single-direction GS exchanges fit between reservations.
	SCO []SCOLinkSpec
	// DirectionAware switches admission to direction-specific worst
	// exchange times (see admission.Config.DirectionAware).
	DirectionAware bool
	// Timeline schedules mid-run changes: GS flows arrive through the
	// paper's online admission test (and may be rejected), BE flows and
	// SCO links come and go, flows retire, and whole piconets join or
	// leave the scatternet. See TimelineEvent.
	Timeline []TimelineEvent
	// Piconets, when non-empty, switches the spec to scatternet form: N
	// co-located piconets run over one shared kernel clock, each with its
	// own scheduler and admission controller. The flat GS/BE/SCO fields
	// must then stay empty (they are the one-piconet degenerate case).
	// Spec-wide knobs (DelayTarget, Mode, BEPoller, Allowed, Radio, ARQ,
	// …) apply to every piconet.
	Piconets []PiconetSpec
	// Interference couples the piconets through FH co-channel collisions
	// (see InterferenceSpec). Without it piconets share only the clock.
	Interference InterferenceSpec
	// InterferenceAwareAdmission feeds the medium's expected collision
	// probability into every piconet's admission controller as a
	// service-rate derating (admission.Config.SuccessProb): delay bounds
	// are evaluated at the effective rate R·s the interference leaves,
	// reserved rates inflate by ~1/s, and the exported C term funds a
	// collision retry budget. Piconet churn re-derates the survivors
	// (add_piconet tightens, remove_piconet relaxes; refused re-derates
	// land in the admission log as rejected "rederate" records). Inert
	// without Interference.Enabled.
	InterferenceAwareAdmission bool
	// AdmissionDerate optionally overrides the estimator with a static
	// success probability in (0,1): admission then derates against this
	// fixed value regardless of the current piconet count, so churn
	// re-derates are no-ops and the initial plan absorbs the worst-case
	// co-location the value was chosen for. Meaningful only with
	// InterferenceAwareAdmission; zero means "use the medium estimate".
	AdmissionDerate float64
	// BatchTraffic batches traffic generation: sources whose generator
	// supports it (CBR, ON/OFF) pre-enqueue one burst of future-dated
	// arrivals per kernel event instead of one event per packet, bounded
	// to a short look-ahead window so arrival events stay on the kernel's
	// O(1) timing wheel. Down-flow arrivals notify the master's scheduler
	// at their arrival instants, so its arrival knowledge is unchanged.
	// Runs stay deterministic, but the RNG draw order differs from
	// unbatched runs, so the two modes are distinct simulations (and
	// fingerprint differently).
	BatchTraffic bool
	// Faults is the declarative fault plan: timed link outages per
	// (piconet, slave), slave departure/return events and master crashes
	// (see internal/faults). Outages force the affected link into 100%
	// loss without consuming RNG draws, so a fault-free spec is
	// byte-identical to a build without the fault layer. The zero plan
	// injects nothing.
	Faults faults.Plan
	// Recovery arms the self-healing machinery: a link supervision
	// timeout in every piconet engine plus the policy applied to flows
	// whose link is declared dead (suspend only, graceful degradation, or
	// make-before-break handoff). The zero value leaves supervision off —
	// faulted flows then keep their queues and silently violate.
	Recovery RecoverySpec
	// Bridges declares the scatternet's bridge nodes: slaves resident in
	// two or more piconets on a deterministic time-division residency
	// schedule (see BridgeSpec). Bridges lift the one-device-one-piconet
	// assumption: polls to a bridge outside its residency window fail like
	// a declared link outage (no RNG draws), and the scheduler plans
	// around the windows. Requires scatternet form.
	Bridges []BridgeSpec
	// Routes declares end-to-end Guaranteed Service flows that traverse
	// bridges: source piconet → bridge(s) → destination, with ONE
	// end-to-end delay target split across the hops at admission time and
	// each hop derated by its bridge's residency duty cycle (see
	// RouteSpec). Admission is atomic all-or-nothing across the hops.
	Routes []RouteSpec
	// KernelWorkers bounds the worker goroutines the sharded event
	// kernel multiplexes piconet groups onto (<= 0 means GOMAXPROCS,
	// capped at the shard count). It is a pure execution knob: the shard
	// partition, every shard's RNG stream and the interference-exchange
	// epochs are derived from the spec alone, so results are
	// byte-identical at any value. It is therefore excluded from the
	// canonical rendering (and the fingerprint/run-cache key), from the
	// v2 JSON codec, and from Result.Spec, which always reports 0.
	KernelWorkers int
}

// Paper returns the paper's Fig. 4 setup: a seven-slave piconet with four
// 64 kbps GS flows (flow 1 at S1, flows 2+3 oppositely directed at S2,
// flow 4 at S3) and eight BE flows (pairs at S4..S7 offering 41.6, 47.2,
// 52.8 and 58.4 kbps per direction), all using DH1+DH3 with best-fit
// segmentation. delayTarget is the delay bound requested for the GS flows
// (the paper's Fig. 5 sweeps 28..46 ms).
func Paper(delayTarget time.Duration) Spec {
	// Oppositely-directed pair sources share a phase so their packets can
	// ride one exchange (the premise of the paper's piggybacking).
	gs := []GSFlow{
		voice(1, 1, piconet.Up, 0),
		voice(2, 2, piconet.Down, 5*time.Millisecond),
		voice(3, 2, piconet.Up, 5*time.Millisecond),
		voice(4, 3, piconet.Up, 10*time.Millisecond),
	}
	var be []BEFlow
	for i, rate := range []float64{41.6, 47.2, 52.8, 58.4} {
		be = append(be, bePair(piconet.FlowID(5+2*i), piconet.SlaveID(4+i), rate, time.Duration(i)*5*time.Millisecond)...)
	}
	return Spec{
		Name:        "paper-fig4",
		GS:          gs,
		BE:          be,
		DelayTarget: delayTarget,
		Allowed:     baseband.PaperTypes,
		Duration:    30 * time.Second,
		Seed:        1,
	}
}

// Baseline returns the best-effort poller comparison setup (experiment
// A2): a BE-only piconet with four loaded slaves (60..90 kbps per
// direction, overloading the channel together) and three idle slaves that
// penalise non-adaptive pollers. kind selects the poller under test.
func Baseline(kind BEPollerKind) Spec {
	var be []BEFlow
	for i, rate := range []float64{60, 70, 80, 90} {
		be = append(be, bePair(piconet.FlowID(1+2*i), piconet.SlaveID(4+i), rate, 0)...)
	}
	// Idle slaves: registered with negligible-rate flows so the pollers
	// must discover they are uninteresting.
	for s := piconet.SlaveID(1); s <= 3; s++ {
		be = append(be, BEFlow{
			ID: piconet.FlowID(8 + s), Slave: s, Dir: piconet.Up, RateKbps: 0.5, PacketSize: 176,
		})
	}
	return Spec{
		Name:     fmt.Sprintf("baseline-%s", kind),
		BE:       be,
		BEPoller: kind,
	}
}

// voice is the paper's 64 kbps voice source: a 20ms CBR GS flow of
// 144–176 B packets.
func voice(id piconet.FlowID, slave piconet.SlaveID, dir piconet.Direction, phase time.Duration) GSFlow {
	return GSFlow{
		ID:       id,
		Slave:    slave,
		Dir:      dir,
		Interval: 20 * time.Millisecond,
		MinSize:  144,
		MaxSize:  176,
		Phase:    phase,
	}
}

// voiceFlows is the presets' static voice set: n flows with ids and
// slaves 1..n, alternating up and down, phases staggered 5ms apart from
// offset.
func voiceFlows(n int, offset time.Duration) []GSFlow {
	var out []GSFlow
	for k := 0; k < n; k++ {
		out = append(out, voice(piconet.FlowID(k+1), piconet.SlaveID(k+1), alternating(k), time.Duration(k)*5*time.Millisecond+offset))
	}
	return out
}

// alternating is the k-th direction of an up, down, up, ... sequence.
func alternating(k int) piconet.Direction {
	if k%2 == 1 {
		return piconet.Down
	}
	return piconet.Up
}

// bePair is a best-effort load of kbps per direction at one slave, 176 B
// packets: the down flow is id, the up flow id+1.
func bePair(id piconet.FlowID, slave piconet.SlaveID, kbps float64, phase time.Duration) []BEFlow {
	return []BEFlow{
		{ID: id, Slave: slave, Dir: piconet.Down, RateKbps: kbps, PacketSize: 176, Phase: phase},
		{ID: id + 1, Slave: slave, Dir: piconet.Up, RateKbps: kbps, PacketSize: 176, Phase: phase},
	}
}

// Hooks are the runtime-only attachments of a run: live observers and
// channel-model instances that cannot travel in a pure-data Spec. Hooked
// runs are excluded from the harness run cache (their side effects cannot
// be replayed).
type Hooks struct {
	// Tracer, when set, receives every completed exchange (see
	// piconet.RingTracer and piconet.NewCSVTracer).
	Tracer piconet.Tracer
	// Radio, when set, overrides Spec.Radio with a live model instance
	// (e.g. a pre-seeded stateful channel).
	Radio radio.Model
}

// Zero reports whether no hook is attached.
func (h Hooks) Zero() bool { return h.Tracer == nil && h.Radio == nil }

// FlowResult summarises one flow after a run.
type FlowResult struct {
	ID piconet.FlowID
	// Piconet names the flow's piconet in scatternet runs ("" for flat
	// single-piconet specs). Flow ids are unique per piconet only.
	Piconet string
	// Route names the end-to-end route this flow is one hop of ("" for
	// ordinary flows). Per-hop rows measure the hop; the end-to-end view
	// lives in Result.Routes.
	Route     string
	Slave     piconet.SlaveID
	Dir       piconet.Direction
	Class     piconet.Class
	Offered   uint64 // packets generated
	Delivered uint64 // packets fully delivered
	Lost      uint64 // packets corrupted on air (lossy radio, no ARQ)
	Kbps      float64
	DelayMax  time.Duration
	DelayMean time.Duration
	DelayP99  time.Duration
	// DelayJitter is the standard deviation of the packet delay (voice
	// and video sources care about it as much as the bound).
	DelayJitter time.Duration
	// Fate records what the fault/recovery machinery did to the flow:
	// "" (untouched), FateSuspended (link died, no recovery), FateDegraded
	// (renegotiated at a looser bound), FateMoved (handed off to another
	// piconet — this row is the source-side remnant), FateCrashed (its
	// piconet's master crashed).
	Fate string
	// Bound and Rate are set for GS flows only. Bound is the loosest
	// bound the flow ever exported while installed: later admissions may
	// shift a flow's priority and grow its x, so this is the weakest
	// promise in effect at any point — the sound value to check measured
	// delays against.
	Bound time.Duration
	Rate  float64
	// Delay exposes the flow's full delay statistics (quantiles,
	// histogram filling). Read-only after the run.
	Delay *stats.DurationStats
}

// Result is a completed scenario run.
type Result struct {
	Spec    Spec
	Elapsed time.Duration
	// Events is the number of kernel events the run executed (decision
	// wake-ups, exchange completions, traffic arrivals); with Elapsed it
	// yields the simulator's events-per-second throughput.
	Events uint64
	Flows  []FlowResult
	// SlaveKbps is the per-slave delivered ACL throughput, both
	// directions; SCOKbps the per-slave SCO voice throughput.
	SlaveKbps map[piconet.SlaveID]float64
	SCOKbps   map[piconet.SlaveID]float64
	Slots     piconet.SlotAccount
	GSPolls   uint64
	BEPolls   uint64
	Skipped   uint64
	// Admitted is the admission plan in force at the end of the run.
	Admitted []*admission.PlannedFlow
	// Admissions is the online admission log: one record per timeline
	// event, in application order, with per-request accept/reject
	// outcomes (empty for static specs). In scatternet runs every record
	// names its piconet.
	Admissions []AdmissionRecord
	// Routes holds the end-to-end results of the routes the run created
	// (empty for route-free specs). A run in one shard group lists them in
	// creation order: static routes, then add_route events in the order
	// they fired. A multi-group run lists them in declaration order:
	// static routes, then add_route events in timeline slice order.
	// Per-hop flow rows appear in Flows/Piconets like ordinary GS flows,
	// labelled with the route name.
	Routes []RouteResult
	// Piconets holds the per-piconet results, in creation order. Flat
	// single-piconet specs carry one entry; the Result-level fields above
	// are its values verbatim. Scatternet runs roll the piconets up into
	// the Result-level fields: Flows concatenates, the throughput maps
	// and slot account sum per slave id across piconets, and the poll
	// counters total.
	Piconets []PiconetResult
}

// FlowByID returns the result row of a flow.
func (r *Result) FlowByID(id piconet.FlowID) (FlowResult, bool) {
	for _, f := range r.Flows {
		if f.ID == id {
			return f, true
		}
	}
	return FlowResult{}, false
}

// TotalKbps returns the delivered throughput of all flows of a class.
func (r *Result) TotalKbps(class piconet.Class) float64 {
	total := 0.0
	for _, f := range r.Flows {
		if f.Class == class {
			total += f.Kbps
		}
	}
	return total
}

// BoundViolations returns GS flows whose measured maximum delay exceeded
// the exported bound (must be empty for a correct scheduler on an
// uncoupled piconet; co-channel interference is exactly what makes it
// non-empty in scatternet runs).
func (r *Result) BoundViolations() []FlowResult {
	var out []FlowResult
	for _, f := range r.Flows {
		if f.Class == piconet.Guaranteed && f.DelayMax > f.Bound {
			out = append(out, f)
		}
	}
	return out
}

// ViolationFraction is the scatternet-wide fraction of GS flows whose
// measured maximum delay exceeded the exported bound (0 when the run had
// no GS flows).
func (r *Result) ViolationFraction() float64 {
	gs, bad := 0, 0
	for _, f := range r.Flows {
		if f.Class != piconet.Guaranteed {
			continue
		}
		gs++
		if f.DelayMax > f.Bound {
			bad++
		}
	}
	if gs == 0 {
		return 0
	}
	return float64(bad) / float64(gs)
}

// PiconetByName returns the result of a piconet.
func (r *Result) PiconetByName(name string) (PiconetResult, bool) {
	for _, p := range r.Piconets {
		if p.Name == name {
			return p, true
		}
	}
	return PiconetResult{}, false
}

// multiPiconet reports whether the result spans more than one piconet
// (reports then gain a piconet column).
func (r *Result) multiPiconet() bool { return len(r.Piconets) > 1 }

// Report renders a run as a table. Scatternet runs gain a leading
// "piconet" column; single-piconet output is unchanged.
func (r *Result) Report() *stats.Table {
	title := fmt.Sprintf("%s: %v over %v (GS polls %d, BE polls %d, skipped %d)",
		r.Spec.Name, r.Spec.Mode, r.Elapsed, r.GSPolls, r.BEPolls, r.Skipped)
	columns := []string{"flow", "slave", "dir", "class", "kbps", "delay_mean", "jitter", "delay_p99", "delay_max", "bound", "ok"}
	// A route column appears only when routed flows exist, mirroring the
	// piconet-column rule: route-free reports render exactly as before.
	withRoute := false
	for _, f := range r.Flows {
		if f.Route != "" {
			withRoute = true
			break
		}
	}
	if withRoute {
		columns = append([]string{"route"}, columns...)
	}
	if r.multiPiconet() {
		columns = append([]string{"piconet"}, columns...)
	}
	tbl := stats.NewTable(title, columns...)
	for _, f := range r.Flows {
		ok := ""
		bound := ""
		if f.Class == piconet.Guaranteed {
			bound = f.Bound.String()
			if f.DelayMax <= f.Bound {
				ok = "yes"
			} else {
				ok = "VIOLATED"
			}
		}
		cells := []any{f.ID, f.Slave, f.Dir, f.Class, stats.FormatKbps(f.Kbps),
			f.DelayMean.Round(time.Microsecond), f.DelayJitter.Round(time.Microsecond),
			f.DelayP99.Round(time.Microsecond),
			f.DelayMax.Round(time.Microsecond), bound, ok}
		if withRoute {
			cells = append([]any{f.Route}, cells...)
		}
		if r.multiPiconet() {
			cells = append([]any{f.Piconet}, cells...)
		}
		tbl.AddRow(cells...)
	}
	return tbl
}

// AdmissionReport renders the online admission log as a table (nil when
// the run had no timeline). Records that name a piconet add a piconet
// column; flat single-piconet output is unchanged.
func (r *Result) AdmissionReport() *stats.Table {
	if len(r.Admissions) == 0 {
		return nil
	}
	withPiconet, withRoute := false, false
	for _, a := range r.Admissions {
		if a.Piconet != "" {
			withPiconet = true
		}
		if a.Route != "" {
			withRoute = true
		}
	}
	columns := []string{"at", "op", "flow", "slave", "outcome", "bound", "rate_Bps", "reason"}
	if withRoute {
		// Route admissions render one row per hop; route-free logs are
		// unchanged (same only-when-present rule as the piconet column).
		columns = append(columns, "route", "hop")
	}
	if withPiconet {
		columns = append([]string{"piconet"}, columns...)
	}
	tbl := stats.NewTable(
		fmt.Sprintf("%s: online admission log (%d requests)", r.Spec.Name, len(r.Admissions)),
		columns...)
	for _, a := range r.Admissions {
		outcome := "accepted"
		if !a.Accepted {
			outcome = "rejected"
		}
		flow, bound, rate := "", "", ""
		if a.Flow != piconet.None {
			flow = fmt.Sprintf("%d", a.Flow)
		}
		if a.Bound > 0 {
			bound = a.Bound.Round(time.Microsecond).String()
		}
		if a.Rate > 0 {
			rate = fmt.Sprintf("%.0f", a.Rate)
		}
		cells := []any{a.At, a.Op, flow, a.Slave, outcome, bound, rate, a.Reason}
		if withRoute {
			hop := ""
			if a.Hop > 0 {
				hop = fmt.Sprintf("%d", a.Hop)
			}
			cells = append(cells, a.Route, hop)
		}
		if withPiconet {
			cells = append([]any{a.Piconet}, cells...)
		}
		tbl.AddRow(cells...)
	}
	return tbl
}
