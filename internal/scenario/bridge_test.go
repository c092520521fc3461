package scenario

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"bluegs/internal/faults"
	"bluegs/internal/piconet"
)

// bridgedPair is a short-horizon bridge-pair spec for the cheap tests.
func bridgedPair(d time.Duration) Spec {
	spec := Bridged(BridgedConfig{Hops: 2})
	spec.Duration = d
	return spec
}

func TestBridgeValidation(t *testing.T) {
	cases := map[string]func() Spec{
		"bridges need scatternet": func() Spec {
			s := Paper(40 * time.Millisecond)
			s.Bridges = []BridgeSpec{{Name: "b1", Period: 100 * time.Millisecond, Residency: []ResidencySpec{
				{Piconet: "pn1", Slave: 6, End: 50 * time.Millisecond},
				{Piconet: "pn2", Slave: 6, Start: 50 * time.Millisecond, End: 100 * time.Millisecond},
			}}}
			return s
		},
		"non-positive period": func() Spec {
			s := bridgedPair(time.Second)
			s.Bridges[0].Period = 0
			return s
		},
		"single residency": func() Spec {
			s := bridgedPair(time.Second)
			s.Bridges[0].Residency = s.Bridges[0].Residency[:1]
			return s
		},
		"unknown piconet": func() Spec {
			s := bridgedPair(time.Second)
			s.Bridges[0].Residency[1].Piconet = "nowhere"
			return s
		},
		"slave out of range": func() Spec {
			s := bridgedPair(time.Second)
			s.Bridges[0].Residency[0].Slave = 9
			return s
		},
		"window past period": func() Spec {
			s := bridgedPair(time.Second)
			s.Bridges[0].Residency[1].End = s.Bridges[0].Period + time.Millisecond
			return s
		},
		"same-bridge windows overlap": func() Spec {
			s := bridgedPair(time.Second)
			s.Bridges[0].Residency[1].Start = s.Bridges[0].Residency[0].End - time.Millisecond
			return s
		},
		"route names unknown bridge": func() Spec {
			s := bridgedPair(time.Second)
			s.Routes[0].Bridges = []string{"ghost"}
			return s
		},
		"route id collides with flow": func() Spec {
			s := bridgedPair(time.Second)
			s.Routes[0].ID = 1 // the background flow in every piconet
			return s
		},
		"batch traffic incompatible": func() Spec {
			s := bridgedPair(time.Second)
			s.BatchTraffic = true
			return s
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Run(build()); !errors.Is(err, ErrBadSpec) {
				t.Fatalf("err = %v, want ErrBadSpec", err)
			}
		})
	}
}

// TestBridgedPresetDelivers: the registered two-hop preset runs, the route
// delivers end to end without losses, and the per-hop flows land in the
// flow report tagged with the route — the route column appearing only
// because a routed flow exists.
func TestBridgedPresetDelivers(t *testing.T) {
	res, err := Run(bridgedPair(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := res.RouteByID(30)
	if !ok {
		t.Fatal("route 30 missing from results")
	}
	if rr.Delivered == 0 || rr.Lost != 0 {
		t.Fatalf("route delivered %d / lost %d packets", rr.Delivered, rr.Lost)
	}
	if rr.Fate != "" {
		t.Fatalf("fault-free route got fate %q", rr.Fate)
	}
	if want := []string{"pn1", "pn2"}; !reflect.DeepEqual(rr.Path, want) {
		t.Fatalf("path %v, want %v", rr.Path, want)
	}
	if len(rr.HopBounds) != 2 {
		t.Fatalf("hop bounds %v, want two hops", rr.HopBounds)
	}
	hops := 0
	for _, f := range res.Flows {
		if f.ID == 30 {
			hops++
			if f.Route == "" {
				t.Fatalf("hop flow in %q has no route label", f.Piconet)
			}
		}
	}
	if hops != 2 {
		t.Fatalf("%d hop flow rows, want 2", hops)
	}
	if tbl := res.Report().String(); !strings.Contains(tbl, "route") {
		t.Fatalf("flow report misses the route column:\n%s", tbl)
	}
	if tbl := res.RouteReport().String(); !strings.Contains(tbl, "pn1>pn2") {
		t.Fatalf("route report misses the path:\n%s", tbl)
	}

	// Bridge-free runs keep the historical report shape: no route column.
	flat, err := Run(Paper(40 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if tbl := flat.Report().String(); strings.Contains(tbl, "route") {
		t.Fatalf("bridge-free flow report grew a route column:\n%s", tbl)
	}
}

// TestOneHopRouteMatchesFlatFlow is the degenerate-route acceptance
// criterion: a single-hop route is metric-identical to the same workload
// expressed as a plain GS flow — the route plumbing (delivery hook,
// origin stamps, per-hop admission) must be observationally free.
func TestOneHopRouteMatchesFlatFlow(t *testing.T) {
	routed := Bridged(BridgedConfig{Hops: 1, RouteTarget: 40 * time.Millisecond})
	routed.Duration = 10 * time.Second

	flat := Spec{
		Name: "flat-twin",
		Piconets: []PiconetSpec{{
			Name: "pn1",
			GS: []GSFlow{
				{ID: 1, Slave: 1, Dir: piconet.Up, Interval: 20 * time.Millisecond, MinSize: 144, MaxSize: 176},
				{ID: 30, Slave: 6, Dir: piconet.Up, Interval: 30 * time.Millisecond, MinSize: 144, MaxSize: 176},
			},
		}},
		DelayTarget: 40 * time.Millisecond,
		Allowed:     routed.Allowed,
		Duration:    10 * time.Second,
		Seed:        1,
		ARQ:         true,
	}

	rres, err := Run(routed)
	if err != nil {
		t.Fatalf("routed: %v", err)
	}
	fres, err := Run(flat)
	if err != nil {
		t.Fatalf("flat: %v", err)
	}
	rf, ok := rres.FlowByID(30)
	if !ok {
		t.Fatal("routed flow 30 missing")
	}
	ff, ok := fres.FlowByID(30)
	if !ok {
		t.Fatal("flat flow 30 missing")
	}
	// The routed row carries the route label; everything measurable must
	// be identical.
	rf.Route = ""
	rf.Delay, ff.Delay = nil, nil
	if !reflect.DeepEqual(rf, ff) {
		t.Fatalf("one-hop route diverged from the flat flow:\nrouted: %+v\nflat:   %+v", rf, ff)
	}
	rr, _ := rres.RouteByID(30)
	if rr.Delivered != ff.Delivered || rr.DelayMax != ff.DelayMax {
		t.Fatalf("route view (%d pkts, max %v) diverged from the flow view (%d pkts, max %v)",
			rr.Delivered, rr.DelayMax, ff.Delivered, ff.DelayMax)
	}
	if rr.PeakQueue != 0 {
		t.Fatalf("one-hop route reports a bridge backlog of %d", rr.PeakQueue)
	}
}

// TestRouteTimelineAddRemove drives the online route protocol: a route
// arrives mid-run through hop-by-hop admission (per-hop records tied to
// the route), an infeasible route rolls back atomically, flat flow
// operations against route members are refused, and remove_route retires
// the route cleanly.
func TestRouteTimelineAddRemove(t *testing.T) {
	spec := bridgedPair(8 * time.Second)
	rt := spec.Routes[0]
	// Static routes clamp to the tightest achievable bound; online
	// admission is strict, so the mid-run route needs a budget whose
	// derated per-hop share is actually reachable.
	rt.DelayTarget = 400 * time.Millisecond
	spec.Routes = nil // arrive via the timeline instead
	spec.Timeline = []TimelineEvent{
		AddRouteAt(1*time.Second, rt),
		AddPiconetAt(1*time.Second, PiconetSpec{Name: "pnx",
			BE: []BEFlow{{ID: 1, Slave: 1, Dir: piconet.Up, RateKbps: 10, PacketSize: 100}}}),
		RemoveAt(2*time.Second, rt.ID),                           // flat remove of a route member
		MoveFlowAt(3*time.Second, rt.ID, "pnx"),                  // handoff of a route member
		RenegotiateAt(3*time.Second, rt.ID, 50*time.Millisecond), // renegotiate a route member
		RemoveRouteAt(5*time.Second, rt.ID),
		// Infeasible end-to-end budget: every hop admission fails, and the
		// rollback must leave no flow behind.
		AddRouteAt(6*time.Second, RouteSpec{
			ID: 31, Source: "pn1", Bridges: []string{"b1"},
			Interval: 30 * time.Millisecond, MinSize: 144, MaxSize: 176,
			DelayTarget: time.Millisecond,
		}),
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[string][]AdmissionRecord{}
	for _, a := range res.Admissions {
		byOp[a.Op] = append(byOp[a.Op], a)
	}
	adds := byOp[OpAddRoute]
	var accepted, rejected int
	for _, a := range adds {
		if a.Accepted {
			accepted++
			if a.Route == "" || a.Hop == 0 {
				t.Fatalf("accepted add-route record lost its hop attribution: %+v", a)
			}
		} else {
			rejected++
			if a.Flow != 31 {
				t.Fatalf("unexpected add-route rejection: %+v", a)
			}
		}
	}
	if accepted != 2 || rejected != 1 {
		t.Fatalf("add-route records: %d accepted, %d rejected (want 2/1): %+v", accepted, rejected, adds)
	}
	if removes := byOp[OpRemoveRoute]; len(removes) != 2 {
		t.Fatalf("remove-route records: %+v, want one per hop", removes)
	}
	for _, op := range []string{OpRemoveFlow, OpHandoff, OpRenegotiate} {
		recs := byOp[op]
		if len(recs) != 1 || recs[0].Accepted {
			t.Fatalf("%s against a route member: %+v, want one rejection", op, recs)
		}
		if !strings.Contains(recs[0].Reason, "route") {
			t.Fatalf("%s rejection does not explain the route: %q", op, recs[0].Reason)
		}
	}
	rr, ok := res.RouteByID(rt.ID)
	if !ok {
		t.Fatal("timeline-added route missing from results")
	}
	if rr.Delivered == 0 {
		t.Fatal("route never delivered between add and remove")
	}
	if _, ok := res.RouteByID(31); ok {
		t.Fatal("rejected route left a result row")
	}
	for _, f := range res.Flows {
		if f.ID == 31 {
			t.Fatalf("rejected route left hop flow behind in %q", f.Piconet)
		}
	}
}

// TestRenegotiateFlow: the renegotiate_flow event tightens or loosens a
// healthy flow's contract through the admission test; a rejected
// renegotiation leaves the old contract in force.
func TestRenegotiateFlow(t *testing.T) {
	spec := Spec{
		Name: "renegotiate",
		GS: []GSFlow{
			{ID: 1, Slave: 1, Dir: piconet.Up, Interval: 20 * time.Millisecond, MinSize: 144, MaxSize: 176},
		},
		BE:          []BEFlow{{ID: 2, Slave: 7, Dir: piconet.Down, RateKbps: 30, PacketSize: 176}},
		DelayTarget: 40 * time.Millisecond,
		Duration:    8 * time.Second,
		Timeline: []TimelineEvent{
			RenegotiateAt(2*time.Second, 1, 60*time.Millisecond),  // loosen
			RenegotiateAt(4*time.Second, 1, 500*time.Microsecond), // infeasible
			RenegotiateAt(6*time.Second, 2, 40*time.Millisecond),  // BE flow
		},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var recs []AdmissionRecord
	for _, a := range res.Admissions {
		if a.Op == OpRenegotiate {
			recs = append(recs, a)
		}
	}
	if len(recs) != 3 {
		t.Fatalf("renegotiate records: %+v, want 3", recs)
	}
	if !recs[0].Accepted || recs[0].Bound <= 0 {
		t.Fatalf("loosening renegotiation refused: %+v", recs[0])
	}
	if recs[1].Accepted {
		t.Fatalf("infeasible renegotiation accepted: %+v", recs[1])
	}
	if recs[2].Accepted {
		t.Fatalf("renegotiating a BE flow accepted: %+v", recs[2])
	}
	f, _ := res.FlowByID(1)
	// The loosened contract stands; the rejected one left it alone. The
	// exported Bound is the loosest ever in force, so it reflects the
	// accepted 60ms renegotiation, not the rejected 500µs one.
	if f.Bound != recs[0].Bound {
		t.Fatalf("flow bound %v, want the renegotiated %v", f.Bound, recs[0].Bound)
	}
	if f.DelayMax > f.Bound {
		t.Fatalf("flow violated its renegotiated bound: %v > %v", f.DelayMax, f.Bound)
	}

	// Statically invalid renegotiations are spec errors, not runtime
	// rejections.
	bad := spec
	bad.Timeline = []TimelineEvent{RenegotiateAt(time.Second, 99, 40*time.Millisecond)}
	if _, err := Run(bad); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("renegotiating an unknown flow: err = %v, want ErrBadSpec", err)
	}
	bad.Timeline = []TimelineEvent{RenegotiateAt(time.Second, 1, 0)}
	if _, err := Run(bad); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("renegotiating to a zero target: err = %v, want ErrBadSpec", err)
	}
}

// TestRouteCrashSuspendsEndToEnd: a master crash on one hop severs the
// whole route — every hop suspends, attributed to the route in the
// admission log — because a route with a dead middle delivers nothing.
func TestRouteCrashSuspendsEndToEnd(t *testing.T) {
	spec := bridgedPair(6 * time.Second)
	spec.Faults = faults.Plan{Crashes: []faults.MasterCrash{{Piconet: "pn2", At: 3 * time.Second}}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := res.RouteByID(30)
	if !ok {
		t.Fatal("route missing from results")
	}
	if rr.Fate != FateCrashed {
		t.Fatalf("route fate %q, want %q", rr.Fate, FateCrashed)
	}
	if rr.Delivered == 0 {
		t.Fatal("route never delivered before the crash")
	}
	suspended := 0
	for _, a := range res.Admissions {
		if a.Op == OpSuspend && a.Route != "" {
			suspended++
		}
	}
	if suspended == 0 {
		t.Fatalf("no route-attributed suspension records: %+v", res.Admissions)
	}
}

// TestRouteDegradeRecovery: an outage at the bridge's forwarding slave
// suspends the route via supervision; the degrade policy renegotiates
// every hop at the loosened end-to-end budget once the link returns. The
// renegotiation is a real admission test: a factor whose per-hop share
// stays unreachable is refused and the route remains suspended.
func TestRouteDegradeRecovery(t *testing.T) {
	build := func(factor float64) Spec {
		spec := bridgedPair(8 * time.Second)
		spec.Faults = faults.Plan{Outages: []faults.LinkOutage{
			{Piconet: "pn2", Slave: 6, Start: 2 * time.Second, End: 2400 * time.Millisecond},
		}}
		spec.Recovery = RecoverySpec{Supervision: 3, Policy: faults.PolicyDegrade, DegradeFactor: factor}
		return spec
	}
	res, err := Run(build(4))
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := res.RouteByID(30)
	if !ok {
		t.Fatal("route missing from results")
	}
	if rr.Fate != FateDegraded {
		t.Fatalf("route fate %q, want %q", rr.Fate, FateDegraded)
	}
	var suspends, degrades int
	for _, a := range res.Admissions {
		if a.Route == "" {
			continue
		}
		switch a.Op {
		case OpSuspend:
			suspends++
		case OpDegrade:
			degrades++
		}
	}
	if suspends == 0 || degrades == 0 {
		t.Fatalf("route fault trace incomplete: %d suspends, %d degrades", suspends, degrades)
	}
	if want := 4 * Bridged(BridgedConfig{Hops: 2}).Routes[0].DelayTarget; rr.Target != want {
		t.Fatalf("degraded route target %v, want %v", rr.Target, want)
	}
	if rr.Delivered == 0 {
		t.Fatal("route never delivered")
	}

	// A 2x factor gives each hop a 110ms share — just under the 110.98ms
	// the derated hop can actually reach — so the degrade admission must
	// refuse and leave the route suspended.
	res2, err := Run(build(2))
	if err != nil {
		t.Fatal(err)
	}
	rr2, _ := res2.RouteByID(30)
	if rr2.Fate != FateSuspended {
		t.Fatalf("unreachable degrade left fate %q, want %q", rr2.Fate, FateSuspended)
	}
}

// TestCanonicalBridgeFreeStability mirrors the fault-free stability test
// for the bridge layer: bridge and route blocks render only when present
// (their JSON keys never appear in a bridge-free spec's rendering), while
// every bridge knob is semantically live.
func TestCanonicalBridgeFreeStability(t *testing.T) {
	for _, spec := range []Spec{
		Paper(40 * time.Millisecond),
		Baseline(BEPFP),
		Scatternet(ScatternetConfig{}),
	} {
		base := spec.Fingerprint()
		canon := spec.Canonical()
		for _, banned := range []string{`"bridges"`, `"routes"`, `"add_route"`, `"remove_route"`, `"renegotiate_flow"`} {
			if strings.Contains(canon, banned) {
				t.Fatalf("%s: bridge-free canonical form contains %q:\n%s", spec.Name, banned, canon)
			}
		}
		reneg := spec
		reneg.Timeline = append([]TimelineEvent(nil), spec.Timeline...)
		reneg.Timeline = append(reneg.Timeline, RenegotiateAt(time.Second, 1, 50*time.Millisecond))
		if reneg.Fingerprint() == base {
			t.Fatalf("%s: a renegotiate_flow event did not change the fingerprint", spec.Name)
		}
		if spec.Fingerprint() != base {
			t.Fatalf("%s: fingerprint unstable across repeated renderings", spec.Name)
		}
	}
}

// TestBridgeFingerprintKnobs: every bridge and route parameter that
// changes the simulation moves the fingerprint; the route's display name
// does not.
func TestBridgeFingerprintKnobs(t *testing.T) {
	base := Bridged(BridgedConfig{Hops: 2})
	fp := base.Fingerprint()
	clone := func() Spec {
		s := base
		s.Bridges = append([]BridgeSpec(nil), base.Bridges...)
		s.Bridges[0].Residency = append([]ResidencySpec(nil), base.Bridges[0].Residency...)
		s.Routes = append([]RouteSpec(nil), base.Routes...)
		return s
	}
	mutate := map[string]func(*Spec){
		"period":       func(s *Spec) { s.Bridges[0].Period += time.Millisecond },
		"window":       func(s *Spec) { s.Bridges[0].Residency[0].End -= time.Millisecond },
		"slave":        func(s *Spec) { s.Bridges[0].Residency[0].Slave = 7; s.Routes[0].ID = 30 },
		"route-target": func(s *Spec) { s.Routes[0].DelayTarget += time.Millisecond },
		"route-naive":  func(s *Spec) { s.Routes[0].Naive = true },
		"route-ival":   func(s *Spec) { s.Routes[0].Interval += time.Millisecond },
		"route-id":     func(s *Spec) { s.Routes[0].ID = 42 },
	}
	seen := map[string]string{fp: "base"}
	for name, f := range mutate {
		s := clone()
		f(&s)
		got := s.Fingerprint()
		if prev, dup := seen[got]; dup {
			t.Fatalf("mutation %q collided with %q", name, prev)
		}
		seen[got] = name
	}
	named := clone()
	named.Routes[0].Name = "renamed"
	if named.Fingerprint() != fp {
		t.Fatal("route Name must not enter the fingerprint")
	}
}

// TestBridgedDeterministicAcrossRuns: bridged runs are reproducible bit
// for bit — reports, route results and the admission log included.
func TestBridgedDeterministicAcrossRuns(t *testing.T) {
	run := func() *Result {
		res, err := Run(bridgedPair(2 * time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if got, want := a.Report().String(), b.Report().String(); got != want {
		t.Fatalf("flow reports diverged:\n%s\nvs\n%s", got, want)
	}
	if got, want := a.RouteReport().String(), b.RouteReport().String(); got != want {
		t.Fatalf("route reports diverged:\n%s\nvs\n%s", got, want)
	}
	if !reflect.DeepEqual(a.Admissions, b.Admissions) {
		t.Fatal("admission logs diverged")
	}
	if !reflect.DeepEqual(a.Routes, b.Routes) {
		t.Fatal("route results diverged")
	}
}
