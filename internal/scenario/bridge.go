package scenario

import (
	"fmt"
	"strings"
	"time"

	"bluegs/internal/admission"
	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
	"bluegs/internal/stats"
	"bluegs/internal/tspec"
)

// ResidencySpec is one recurring presence window of a bridge device in one
// piconet: within every Period of the bridge's schedule, the device is
// reachable as Slave in Piconet during [Start, End) and absent otherwise.
type ResidencySpec struct {
	// Piconet names the hosting piconet ("" is the flat spec's piconet).
	Piconet string
	// Slave is the address the bridge answers to inside this piconet.
	Slave piconet.SlaveID
	// Start and End delimit the presence window within each period
	// (0 <= Start < End <= Period).
	Start time.Duration
	End   time.Duration
}

// duty is the fraction of the period the window covers.
func (rs ResidencySpec) duty(period time.Duration) float64 {
	if period <= 0 {
		return 0
	}
	return float64(rs.End-rs.Start) / float64(period)
}

// BridgeSpec is a named slave device resident in two or more piconets on a
// deterministic time-division schedule. A bridge has one radio: its
// residency windows must not overlap in time. While a bridge is outside a
// piconet's window, polls to its slave address there fail exactly like a
// declared link outage — deterministically, with no RNG draws — and the
// scheduler plans around the windows instead of wasting polls (see
// core.WithResidency).
type BridgeSpec struct {
	// Name addresses the bridge from RouteSpec.Bridges.
	Name string
	// Period is the length of the repeating residency schedule.
	Period time.Duration
	// Residency lists the per-piconet presence windows (at least two
	// piconets; at most one window per piconet).
	Residency []ResidencySpec
}

// residencyIn returns the bridge's window in the named piconet.
func (b BridgeSpec) residencyIn(pn string) (ResidencySpec, bool) {
	for _, rs := range b.Residency {
		if rs.Piconet == pn {
			return rs, true
		}
	}
	return ResidencySpec{}, false
}

// dutyIn is the bridge's residency duty cycle in the named piconet (0 when
// it is not resident there).
func (b BridgeSpec) dutyIn(pn string) float64 {
	rs, ok := b.residencyIn(pn)
	if !ok {
		return 0
	}
	return rs.duty(b.Period)
}

// nextAfter is the piconet a packet relayed through the bridge leaves
// toward when it arrived from `from`: the bridge's first residency in a
// different piconet.
func (b BridgeSpec) nextAfter(from string) (string, bool) {
	for _, rs := range b.Residency {
		if rs.Piconet != from {
			return rs.Piconet, true
		}
	}
	return "", false
}

// RouteSpec is one end-to-end Guaranteed Service flow across the
// scatternet: a CBR source in the Source piconet whose packets traverse the
// listed bridges, one piconet per hop, under a single end-to-end delay
// budget. The runner decomposes the budget into per-hop admission targets
// (admission.SplitBudget), admits every hop atomically — all hops or none —
// and derates each hop's admission by the bridge's residency duty cycle in
// that hop's piconet (composed, via admission.Config.SuccessProb, with the
// FH collision derate when interference-aware admission is on).
//
// The hop model: hop 1 is a down-flow from the Source piconet's master to
// the first bridge's slave address there; hop i (i >= 2) is an up-flow in
// the next piconet from bridge i-1's slave address, delivering to that
// piconet's master. A packet completing hop i is re-enqueued into hop i+1's
// up-flow queue at its delivery instant (the bridge's store-and-forward
// queue); the intra-piconet relay from an intermediate master to the next
// bridge is abstracted into that handoff.
type RouteSpec struct {
	// ID is the flow id of every hop of the route. It must be unique
	// scatternet-wide: no piconet the route traverses may use it for
	// another flow, and no two routes may share it.
	ID piconet.FlowID
	// Name labels the route in reports ("" defaults to "route-<ID>").
	Name string
	// Source names the piconet the traffic originates in ("" means the
	// spec's first piconet).
	Source string
	// Bridges lists, in path order, the bridge devices the route crosses.
	// An empty list makes the route single-hop: a plain GS flow at
	// Slave/Dir in the Source piconet, metric-identical to the equivalent
	// GSFlow.
	Bridges []string
	// Slave and Dir place a single-hop (bridgeless) route; they must stay
	// zero when Bridges is set (the hop endpoints then follow from the
	// bridge residencies).
	Slave piconet.SlaveID
	Dir   piconet.Direction
	// Interval is the source's packet spacing; MinSize/MaxSize its uniform
	// packet size support (the TSpec derives per §4.1, like GSFlow).
	Interval time.Duration
	MinSize  int
	MaxSize  int
	// Phase offsets the source start.
	Phase time.Duration
	// Allowed overrides the spec-wide baseband type set when non-empty.
	Allowed baseband.TypeSet
	// DelayTarget is the end-to-end delay budget (zero defaults to the
	// spec's DelayTarget). A mid-run add_route whose budget cannot be met
	// on every hop is rejected as a whole.
	DelayTarget time.Duration
	// Naive switches the route to the uncoordinated baseline the E12
	// bridge study measures against: every hop is admitted at the full
	// end-to-end budget (no split) and without the residency derate. The
	// per-hop contracts then look satisfiable in isolation while the
	// end-to-end bound is not.
	Naive bool
}

// Spec returns the route's token bucket specification.
func (rt RouteSpec) Spec() tspec.TSpec {
	return tspec.CBR(rt.Interval, rt.MinSize, rt.MaxSize)
}

// routeHop is one derived per-piconet leg of a route.
type routeHop struct {
	// Piconet hosts the hop; Slave/Dir are its flow endpoint there.
	Piconet string
	Slave   piconet.SlaveID
	Dir     piconet.Direction
	// Bridge names the bridge gating the hop ("" for a bridgeless route).
	Bridge string
	// Duty is that bridge's residency duty cycle in this piconet (1 when
	// ungated).
	Duty float64
	// Target is the hop's share of the end-to-end budget.
	Target time.Duration
	// Scale is the admission request's SuccessScale: the residency duty
	// cycle, composed multiplicatively with the controller's interference
	// derate (0 means no extra scaling — ungated or naive hops).
	Scale float64
}

// routeHops derives a route's per-piconet legs from the spec's bridge
// schedules: the traversed path, each hop's flow endpoint, its share of the
// end-to-end budget, and its residency derate. Expects the defaulted view.
func (s Spec) routeHops(rt RouteSpec) ([]routeHop, error) {
	target, cur := rt.DelayTarget, rt.Source
	if len(rt.Bridges) == 0 {
		return []routeHop{{Piconet: cur, Slave: rt.Slave, Dir: rt.Dir, Duty: 1, Target: target}}, nil
	}
	n := len(rt.Bridges) + 1
	budgets := admission.SplitBudget(target, n)
	if rt.Naive {
		// The baseline grants each hop the whole budget.
		for i := range budgets {
			budgets[i] = target
		}
	}
	hops := make([]routeHop, 0, n)
	for i, name := range rt.Bridges {
		br, ok := s.bridgeByName(name)
		if !ok {
			return nil, fmt.Errorf("%w: route %d: unknown bridge %q", ErrBadSpec, rt.ID, name)
		}
		res, ok := br.residencyIn(cur)
		if !ok {
			return nil, fmt.Errorf("%w: route %d: bridge %q is not resident in %q", ErrBadSpec, rt.ID, name, cur)
		}
		if i == 0 {
			hops = append(hops, routeHop{
				Piconet: cur, Slave: res.Slave, Dir: piconet.Down,
				Bridge: name, Duty: res.duty(br.Period), Target: budgets[0],
			})
		}
		next, ok := br.nextAfter(cur)
		if !ok {
			return nil, fmt.Errorf("%w: route %d: bridge %q leads nowhere from %q", ErrBadSpec, rt.ID, name, cur)
		}
		nres, _ := br.residencyIn(next)
		hops = append(hops, routeHop{
			Piconet: next, Slave: nres.Slave, Dir: piconet.Up,
			Bridge: name, Duty: nres.duty(br.Period), Target: budgets[i+1],
		})
		cur = next
	}
	if !rt.Naive {
		for i := range hops {
			if d := hops[i].Duty; d > 0 && d < 1 {
				hops[i].Scale = d
			}
		}
	}
	return hops, nil
}

// bridgeByName looks a bridge up in the spec.
func (s Spec) bridgeByName(name string) (BridgeSpec, bool) {
	for _, b := range s.Bridges {
		if b.Name == name {
			return b, true
		}
	}
	return BridgeSpec{}, false
}

// usesRoutes reports whether the spec has any route, static or via the
// timeline (the runner installs the bridge forwarding machinery only then,
// so bridge-free runs keep the exact delivery path — and RNG draw order —
// of earlier builds).
func (s Spec) usesRoutes() bool {
	if len(s.Routes) > 0 {
		return true
	}
	for _, ev := range s.Timeline {
		if ev.AddRoute != nil {
			return true
		}
	}
	return false
}

// validateBridges statically checks the bridge schedules and route specs:
// structurally valid windows on known piconets, one radio per bridge
// (windows disjoint in time), unambiguous paths, and scatternet-unique
// route flow ids. Expects the defaulted view.
func validateBridges(spec Spec) error {
	if len(spec.Bridges) == 0 && len(spec.Routes) == 0 {
		return nil
	}
	if len(spec.Bridges) > 0 && !spec.scatternet() {
		return fmt.Errorf("%w: bridges require the scatternet form (Piconets)", ErrBadSpec)
	}
	if spec.BatchTraffic && spec.usesRoutes() {
		return fmt.Errorf("%w: routes use the per-packet source path; BatchTraffic is incompatible with Routes", ErrBadSpec)
	}
	pns := make(map[string]bool)
	for _, ps := range spec.piconetSpecs() {
		pns[ps.Name] = true
	}
	// Bridges: named, scheduled, and physically one radio each.
	seen := make(map[string]bool, len(spec.Bridges))
	slaves := make(map[string]map[piconet.SlaveID]string) // piconet -> slave -> bridge
	for _, b := range spec.Bridges {
		if b.Name == "" {
			return fmt.Errorf("%w: bridge with no name", ErrBadSpec)
		}
		if seen[b.Name] {
			return fmt.Errorf("%w: duplicate bridge name %q", ErrBadSpec, b.Name)
		}
		seen[b.Name] = true
		if b.Period <= 0 {
			return fmt.Errorf("%w: bridge %q: non-positive period %v", ErrBadSpec, b.Name, b.Period)
		}
		if len(b.Residency) < 2 {
			return fmt.Errorf("%w: bridge %q: a bridge is resident in at least two piconets", ErrBadSpec, b.Name)
		}
		inPn := make(map[string]bool, len(b.Residency))
		for _, rs := range b.Residency {
			if !pns[rs.Piconet] {
				return fmt.Errorf("%w: bridge %q: unknown piconet %q", ErrBadSpec, b.Name, rs.Piconet)
			}
			if inPn[rs.Piconet] {
				return fmt.Errorf("%w: bridge %q: two windows in piconet %q", ErrBadSpec, b.Name, rs.Piconet)
			}
			inPn[rs.Piconet] = true
			if rs.Slave < 1 || rs.Slave > 7 {
				return fmt.Errorf("%w: bridge %q: slave %d outside 1..7", ErrBadSpec, b.Name, rs.Slave)
			}
			if rs.Start < 0 || rs.End <= rs.Start || rs.End > b.Period {
				return fmt.Errorf("%w: bridge %q: window [%v,%v) outside [0,%v]",
					ErrBadSpec, b.Name, rs.Start, rs.End, b.Period)
			}
			bySlave := slaves[rs.Piconet]
			if bySlave == nil {
				bySlave = make(map[piconet.SlaveID]string)
				slaves[rs.Piconet] = bySlave
			}
			if other, dup := bySlave[rs.Slave]; dup {
				return fmt.Errorf("%w: bridges %q and %q share slave %d in piconet %q",
					ErrBadSpec, other, b.Name, rs.Slave, rs.Piconet)
			}
			bySlave[rs.Slave] = b.Name
		}
		// One radio: the device cannot be in two piconets at once.
		for i, a := range b.Residency {
			for _, c := range b.Residency[i+1:] {
				if a.Start < c.End && c.Start < a.End {
					return fmt.Errorf("%w: bridge %q: windows in %q and %q overlap",
						ErrBadSpec, b.Name, a.Piconet, c.Piconet)
				}
			}
		}
	}
	// Routes: structurally valid, derivable paths, unique ids.
	ids := make(map[piconet.FlowID]bool, len(spec.Routes))
	for _, rt := range spec.Routes {
		if err := spec.validateRoute(rt, pns, ids, nil); err != nil {
			return err
		}
	}
	return nil
}

// validateRoute checks one route (static or timeline-added) and claims its
// flow id: in ids across routes, and — when flowSets is non-nil — in every
// traversed piconet's flow-id set (timeline validation threads its known
// map through so route hops and ordinary flows cannot collide).
func (s Spec) validateRoute(rt RouteSpec, pns map[string]bool, ids map[piconet.FlowID]bool,
	flowSets map[string]map[piconet.FlowID]bool) error {
	if rt.ID == piconet.None {
		return fmt.Errorf("%w: route with zero flow id", ErrBadSpec)
	}
	if ids[rt.ID] {
		return fmt.Errorf("%w: duplicate route id %d", ErrBadSpec, rt.ID)
	}
	if !pns[rt.Source] {
		return fmt.Errorf("%w: route %d: unknown source piconet %q", ErrBadSpec, rt.ID, rt.Source)
	}
	if len(rt.Bridges) == 0 {
		if rt.Slave < 1 || rt.Slave > 7 {
			return fmt.Errorf("%w: route %d: slave %d outside 1..7", ErrBadSpec, rt.ID, rt.Slave)
		}
		if rt.Dir != piconet.Up && rt.Dir != piconet.Down {
			return fmt.Errorf("%w: route %d: single-hop route needs a direction", ErrBadSpec, rt.ID)
		}
	} else if rt.Slave != 0 || rt.Dir != 0 {
		return fmt.Errorf("%w: route %d: Slave/Dir must stay zero when Bridges is set", ErrBadSpec, rt.ID)
	}
	if rt.DelayTarget < 0 {
		return fmt.Errorf("%w: route %d: negative delay target", ErrBadSpec, rt.ID)
	}
	hops, err := s.routeHops(rt)
	if err != nil {
		return err
	}
	visited := make(map[string]bool, len(hops))
	for _, h := range hops {
		if visited[h.Piconet] {
			return fmt.Errorf("%w: route %d: path revisits piconet %q", ErrBadSpec, rt.ID, h.Piconet)
		}
		visited[h.Piconet] = true
		if flowSets != nil {
			flows := flowSets[h.Piconet]
			if flows == nil {
				return fmt.Errorf("%w: route %d: unknown piconet %q", ErrBadSpec, rt.ID, h.Piconet)
			}
			if flows[rt.ID] {
				return fmt.Errorf("%w: route %d: flow id %d already used in piconet %q",
					ErrBadSpec, rt.ID, rt.ID, h.Piconet)
			}
			flows[rt.ID] = true
		}
	}
	ids[rt.ID] = true
	return nil
}

// RouteResult summarises one route after a run: end-to-end delay measured
// from packet generation in the source piconet to final-hop delivery,
// against the single end-to-end budget, plus the per-hop contracts.
type RouteResult struct {
	ID   piconet.FlowID
	Name string
	// Path lists the piconets traversed, in order.
	Path []string
	// Target is the end-to-end delay budget the route negotiated against.
	Target time.Duration
	// Offered counts packets generated at the source; Delivered packets
	// that completed the final hop; Lost packets that died on air (lossy
	// radio without ARQ) or were severed mid-path by faults.
	Offered   uint64
	Delivered uint64
	Lost      uint64
	// Kbps is the delivered end-to-end throughput.
	Kbps float64
	// DelayMax/Mean/P99 are end-to-end packet delays.
	DelayMax  time.Duration
	DelayMean time.Duration
	DelayP99  time.Duration
	// HopBounds and HopRates are the per-hop admitted contracts, in path
	// order: the loosest bound each hop flow ever exported and its
	// reserved rate (see FlowResult.Bound).
	HopBounds []time.Duration
	HopRates  []float64
	// PeakQueue is the largest number of route packets simultaneously in
	// flight past the first hop — the bridges' store-and-forward backlog
	// high-water mark.
	PeakQueue int
	// Fate records what the fault machinery did to the route ("" means
	// untouched; see the Fate* constants).
	Fate string
	// Delay exposes the full end-to-end delay statistics.
	Delay *stats.DurationStats
}

// Violated reports whether the measured end-to-end maximum exceeded the
// budget.
func (rr RouteResult) Violated() bool { return rr.DelayMax > rr.Target }

// RouteByID returns the result row of a route.
func (r *Result) RouteByID(id piconet.FlowID) (RouteResult, bool) {
	for _, rr := range r.Routes {
		if rr.ID == id {
			return rr, true
		}
	}
	return RouteResult{}, false
}

// RouteViolations returns the routes whose measured end-to-end maximum
// delay exceeded their budget.
func (r *Result) RouteViolations() []RouteResult {
	var out []RouteResult
	for _, rr := range r.Routes {
		if rr.Violated() {
			out = append(out, rr)
		}
	}
	return out
}

// RouteReport renders the end-to-end route outcomes as a table (nil when
// the run had no routes).
func (r *Result) RouteReport() *stats.Table {
	if len(r.Routes) == 0 {
		return nil
	}
	tbl := stats.NewTable(
		fmt.Sprintf("%s: end-to-end routes (%d)", r.Spec.Name, len(r.Routes)),
		"route", "path", "hops", "kbps", "delay_mean", "delay_p99", "delay_max", "target", "ok", "peak_queue", "fate")
	for _, rr := range r.Routes {
		ok := "yes"
		if rr.Violated() {
			ok = "VIOLATED"
		}
		tbl.AddRow(rr.Name, strings.Join(rr.Path, ">"), len(rr.Path),
			stats.FormatKbps(rr.Kbps),
			rr.DelayMean.Round(time.Microsecond), rr.DelayP99.Round(time.Microsecond),
			rr.DelayMax.Round(time.Microsecond), rr.Target, ok, rr.PeakQueue, rr.Fate)
	}
	return tbl
}

// BridgedConfig parameterises the bridge preset generator. The zero value
// gives the registered "bridge-pair" preset: two piconets joined by one
// bridge, a two-hop route under a 110ms end-to-end budget at a 50% duty
// cycle, one background voice flow per piconet.
type BridgedConfig struct {
	// Hops is the number of piconets the route traverses (1..3, default
	// 2). One hop degenerates to a flat GS flow; three hops chain two
	// bridges.
	Hops int
	// Duty is the forwarding duty cycle d in (0,1), default 0.5: each
	// bridge spends d of its period in the piconet it forwards from
	// (up-flow hops) and 1-d in the piconet it receives in.
	Duty float64
	// Period is the residency schedule period (default 100ms: long
	// enough that packets queue at a closed bridge, which is what
	// separates residency-aware admission from the naive baseline).
	Period time.Duration
	// GSPerPiconet is the background voice load (flows per piconet at
	// slaves 1.., default 1, max 4).
	GSPerPiconet int
	// RouteTarget is the end-to-end budget (default 55ms per hop, so
	// 110ms for the two-hop pair); Interval the route source's packet
	// spacing (default 30ms).
	RouteTarget time.Duration
	Interval    time.Duration
	// DelayTarget is the background flows' bound (default 40ms); Duration
	// the horizon (default 30s).
	DelayTarget time.Duration
	Duration    time.Duration
	// Naive switches the route to the uncoordinated baseline (full budget
	// per hop, no residency derate).
	Naive bool
}

func (c BridgedConfig) withDefaults() BridgedConfig {
	if c.Hops < 1 {
		c.Hops = 2
	}
	if c.Hops > 3 {
		c.Hops = 3
	}
	if c.Duty <= 0 || c.Duty >= 1 {
		c.Duty = 0.5
	}
	if c.Period <= 0 {
		c.Period = 100 * time.Millisecond
	}
	if c.GSPerPiconet < 1 {
		c.GSPerPiconet = 1
	}
	if c.GSPerPiconet > 4 {
		c.GSPerPiconet = 4
	}
	if c.RouteTarget <= 0 {
		c.RouteTarget = time.Duration(c.Hops) * 55 * time.Millisecond
	}
	if c.Interval <= 0 {
		c.Interval = 30 * time.Millisecond
	}
	if c.DelayTarget <= 0 {
		c.DelayTarget = 40 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	return c
}

// Bridged builds the E12 bridge workload: Hops piconets chained by
// time-division bridges at slave 6, one end-to-end route, and a background
// voice floor per piconet. Bridge i receives in piconet i during
// [0, (1-d)·P) and forwards from piconet i+1 during [(1-d)·P, P) — the
// asymmetry is physical: a device present a fraction d of the time in one
// piconet has at most 1-d left for the other.
func Bridged(cfg BridgedConfig) Spec {
	cfg = cfg.withDefaults()
	var pns []PiconetSpec
	for i := 0; i < cfg.Hops; i++ {
		ps := PiconetSpec{Name: fmt.Sprintf("pn%d", i+1)}
		for k := 0; k < cfg.GSPerPiconet; k++ {
			dir := piconet.Up
			if k%2 == 1 {
				dir = piconet.Down
			}
			ps.GS = append(ps.GS, GSFlow{
				ID:       piconet.FlowID(k + 1),
				Slave:    piconet.SlaveID(k + 1),
				Dir:      dir,
				Interval: 20 * time.Millisecond,
				MinSize:  144,
				MaxSize:  176,
				Phase:    time.Duration(k)*5*time.Millisecond + time.Duration(i)*time.Millisecond,
			})
		}
		pns = append(pns, ps)
	}
	route := RouteSpec{
		ID:          30,
		Source:      "pn1",
		Interval:    cfg.Interval,
		MinSize:     144,
		MaxSize:     176,
		DelayTarget: cfg.RouteTarget,
		Naive:       cfg.Naive,
	}
	var bridges []BridgeSpec
	if cfg.Hops == 1 {
		// Degenerate single-hop route: a plain GS flow in pn1.
		route.Slave = 6
		route.Dir = piconet.Up
	} else {
		split := time.Duration(float64(cfg.Period) * (1 - cfg.Duty))
		for i := 0; i < cfg.Hops-1; i++ {
			name := fmt.Sprintf("b%d", i+1)
			recvSlave := piconet.SlaveID(6)
			if i > 0 {
				// A middle piconet hosts two bridges: the incoming one
				// at slave 6, the outgoing one at slave 5.
				recvSlave = 5
			}
			bridges = append(bridges, BridgeSpec{
				Name:   name,
				Period: cfg.Period,
				Residency: []ResidencySpec{
					{Piconet: fmt.Sprintf("pn%d", i+1), Slave: recvSlave, Start: 0, End: split},
					{Piconet: fmt.Sprintf("pn%d", i+2), Slave: 6, Start: split, End: cfg.Period},
				},
			})
			route.Bridges = append(route.Bridges, name)
		}
	}
	name := fmt.Sprintf("bridge-%dhop", cfg.Hops)
	if cfg.Naive {
		name += "-naive"
	}
	return Spec{
		Name:        name,
		Piconets:    pns,
		Bridges:     bridges,
		Routes:      []RouteSpec{route},
		DelayTarget: cfg.DelayTarget,
		Allowed:     baseband.PaperTypes,
		Duration:    cfg.Duration,
		Seed:        1,
		ARQ:         true,
	}
}
