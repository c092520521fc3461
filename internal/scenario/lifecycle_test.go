package scenario_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/faults"
	"bluegs/internal/harness"
	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
)

// lifecycleGolden pins the lifecycle specs' results. -update rewrites it
// under the same salt rule as the preset digests:
//
//	go test ./internal/scenario -run TestLifecycleDigests -update
const lifecycleGolden = "testdata/lifecycle_digests.golden"

// voice is the 20 ms voice flow shape the lifecycle specs reuse.
func voice(id piconet.FlowID, slave piconet.SlaveID, dir piconet.Direction) scenario.GSFlow {
	return scenario.GSFlow{ID: id, Slave: slave, Dir: dir,
		Interval: 20 * time.Millisecond, MinSize: 144, MaxSize: 176}
}

// bridgedPair is the two-hop bridge preset at a short horizon.
func bridgedPair(d time.Duration) scenario.Spec {
	spec := scenario.Bridged(scenario.BridgedConfig{Hops: 2})
	spec.Duration = d
	return spec
}

// routeOutage puts a supervision-detected outage on the bridged pair's
// forwarding slave under the given recovery policy.
func routeOutage(policy faults.Policy, factor float64) scenario.Spec {
	spec := bridgedPair(5 * time.Second)
	spec.Faults = faults.Plan{Outages: []faults.LinkOutage{
		{Piconet: "pn2", Slave: 6, Start: 2 * time.Second, End: 2400 * time.Millisecond},
	}}
	spec.Recovery = scenario.RecoverySpec{Supervision: 3, Policy: policy, DegradeFactor: factor}
	return spec
}

// lifecycleSpecs drives every runtime path that admits, installs,
// releases or re-plans a reservation outside the registry presets:
// online GS/BE arrivals and departures, renegotiation, move_flow, SCO
// add/drop, piconet churn with re-derating, route add/remove with
// rollback, route degrade (accepted and refused), route handoff refusal,
// and master crashes and piconet removals severing flows and routes.
func lifecycleSpecs() map[string]scenario.Spec {
	specs := make(map[string]scenario.Spec)

	churn := scenario.Scatternet(scenario.ScatternetConfig{
		Piconets: 2, BEKbps: 30, Duration: 4 * time.Second, InterferenceAware: true,
	})
	churn.Name = "flow-churn"
	churn.DelayTarget = 100 * time.Millisecond
	churn.Timeline = []scenario.TimelineEvent{
		scenario.AddGSAt(500*time.Millisecond, voice(10, 3, piconet.Up)).For("pn1"),
		scenario.AddBEAt(600*time.Millisecond, scenario.BEFlow{
			ID: 11, Slave: 4, Dir: piconet.Down, RateKbps: 20, PacketSize: 176}).For("pn1"),
		scenario.AddPiconetAt(time.Second, scenario.PiconetSpec{Name: "pn3",
			GS: []scenario.GSFlow{voice(1, 1, piconet.Up)}}),
		scenario.RenegotiateAt(time.Second, 1, 150*time.Millisecond).For("pn1"),
		scenario.RenegotiateAt(1100*time.Millisecond, 2, 500*time.Microsecond).For("pn1"),
		scenario.MoveFlowAt(1500*time.Millisecond, 10, "pn2").For("pn1"),
		scenario.RemoveAt(2*time.Second, 1).For("pn1"),
		scenario.RemoveAt(2200*time.Millisecond, 11).For("pn1"),
		scenario.RemovePiconetAt(3*time.Second, "pn3"),
		scenario.AddGSAt(3500*time.Millisecond, voice(12, 2, piconet.Up)).For("pn3"),
	}
	specs["flow-churn"] = churn

	specs["sco-gs"] = scenario.Spec{
		Name:        "sco-gs",
		GS:          []scenario.GSFlow{{ID: 1, Slave: 1, Dir: piconet.Up, Interval: 40 * time.Millisecond, MinSize: 20, MaxSize: 27}},
		BE:          []scenario.BEFlow{{ID: 3, Slave: 7, Dir: piconet.Down, RateKbps: 30, PacketSize: 27}},
		Allowed:     baseband.NewTypeSet(baseband.TypeDH1),
		DelayTarget: 100 * time.Millisecond,
		Duration:    3 * time.Second,
		Timeline: []scenario.TimelineEvent{
			scenario.AddSCOAt(time.Second, scenario.SCOLinkSpec{Slave: 4, Type: baseband.TypeHV3}),
			scenario.AddSCOAt(1100*time.Millisecond, scenario.SCOLinkSpec{Slave: 5, Type: baseband.TypeHV3}),
			scenario.DropSCOAt(2*time.Second, 4),
		},
	}

	routes := bridgedPair(5 * time.Second)
	routes.Name = "route-add-remove"
	rt := routes.Routes[0]
	rt.DelayTarget = 400 * time.Millisecond
	routes.Routes = nil
	routes.Timeline = []scenario.TimelineEvent{
		scenario.AddRouteAt(time.Second, rt),
		scenario.RemoveAt(1500*time.Millisecond, rt.ID).For("pn1"),
		scenario.RenegotiateAt(1500*time.Millisecond, rt.ID, 50*time.Millisecond).For("pn1"),
		scenario.RemoveRouteAt(3*time.Second, rt.ID),
		scenario.AddRouteAt(3500*time.Millisecond, scenario.RouteSpec{
			ID: 31, Source: "pn1", Bridges: []string{"b1"},
			Interval: 30 * time.Millisecond, MinSize: 144, MaxSize: 176,
			DelayTarget: time.Millisecond,
		}),
	}
	specs["route-add-remove"] = routes

	specs["route-degrade"] = routeOutage(faults.PolicyDegrade, 4)
	specs["route-degrade-refused"] = routeOutage(faults.PolicyDegrade, 2)
	specs["route-handoff"] = routeOutage(faults.PolicyHandoff, 0)

	crash := bridgedPair(4 * time.Second)
	crash.Faults = faults.Plan{Crashes: []faults.MasterCrash{{Piconet: "pn2", At: 2 * time.Second}}}
	specs["route-crash"] = crash

	gone := bridgedPair(4 * time.Second)
	gone.Timeline = []scenario.TimelineEvent{scenario.RemovePiconetAt(2*time.Second, "pn2")}
	specs["route-remove-piconet"] = gone

	for _, policy := range []faults.Policy{faults.PolicyNone, faults.PolicyDegrade, faults.PolicyHandoff} {
		spec := scenario.FaultScenario(scenario.FaultScenarioConfig{Policy: policy, Duration: 4 * time.Second})
		spec.Faults.Crashes = []faults.MasterCrash{{Piconet: "pn1", At: 3 * time.Second}}
		specs[spec.Name+"-crash"] = spec
	}
	return specs
}

// lifecycleDigest hashes what a lifecycle run exposes: the rendered
// report and admission log, plus the fields those tables omit (fates,
// suspension latencies, route results, piconet end states).
func lifecycleDigest(res *scenario.Result) string {
	h := sha256.New()
	h.Write([]byte(res.Report().String()))
	if adm := res.AdmissionReport(); adm != nil {
		h.Write([]byte(adm.String()))
	}
	for _, a := range res.Admissions {
		fmt.Fprintf(h, "%+v\n", a)
	}
	for _, pr := range res.Piconets {
		fmt.Fprintf(h, "piconet %s removed=%v crashed=%v slots=%+v\n", pr.Name, pr.Removed, pr.Crashed, pr.Slots)
		for _, f := range pr.Flows {
			fmt.Fprintf(h, "flow %d fate=%q route=%q offered=%d delivered=%d lost=%d bound=%v rate=%g\n",
				f.ID, f.Fate, f.Route, f.Offered, f.Delivered, f.Lost, f.Bound, f.Rate)
		}
	}
	for _, rr := range res.Routes {
		fmt.Fprintf(h, "route %d %s path=%v target=%v fate=%q offered=%d delivered=%d lost=%d max=%v peak=%d hops=%v rates=%v\n",
			rr.ID, rr.Name, rr.Path, rr.Target, rr.Fate, rr.Offered, rr.Delivered, rr.Lost,
			rr.DelayMax, rr.PeakQueue, rr.HopBounds, rr.HopRates)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLifecycleDigests pins the results of the lifecycle specs under the
// current cache salt, like TestResultDigests does for the presets. It
// also checks that the list still reaches every operation it exists to
// guard, so a spec edit cannot silently drop a path.
func TestLifecycleDigests(t *testing.T) {
	specs := lifecycleSpecs()
	got := make(map[string]string, len(specs))
	accepted := make(map[string]bool)
	for name, spec := range specs {
		res, err := scenario.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = lifecycleDigest(res)
		for _, a := range res.Admissions {
			if a.Accepted {
				key := a.Op
				if a.Route != "" {
					key += "/route"
				}
				accepted[key] = true
			}
		}
		for _, rr := range res.Routes {
			accepted["route-fate/"+rr.Fate] = true
		}
	}
	for _, op := range []string{
		scenario.OpAddGS, scenario.OpAddBE, scenario.OpRemoveFlow, scenario.OpRenegotiate,
		scenario.OpHandoff, scenario.OpAddSCO, scenario.OpDropSCO, scenario.OpRederate,
		scenario.OpAddPiconet, scenario.OpRemovePiconet, scenario.OpCrash,
		scenario.OpSuspend, scenario.OpDegrade,
		scenario.OpAddRoute + "/route", scenario.OpRemoveRoute + "/route",
		scenario.OpSuspend + "/route", scenario.OpDegrade + "/route",
		"route-fate/" + scenario.FateCrashed, "route-fate/" + scenario.FateSuspended,
	} {
		if !accepted[op] {
			t.Errorf("no lifecycle spec reaches an accepted %s", op)
		}
	}

	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	path := filepath.FromSlash(lifecycleGolden)
	salt, want, err := readDigests(path)
	if *update && !t.Failed() {
		if err == nil && salt == harness.DefaultCacheSalt {
			t.Fatalf("refusing -update: %s was recorded under the current salt %q; bump harness.DefaultCacheSalt first",
				path, salt)
		}
		var b strings.Builder
		b.WriteString("# SHA-256 of each lifecycle spec's result (see lifecycleDigest) at its own horizon.\n")
		b.WriteString("# Regenerate only under a new harness.DefaultCacheSalt: go test ./internal/scenario -run TestLifecycleDigests -update\n")
		fmt.Fprintf(&b, "salt %s\n", harness.DefaultCacheSalt)
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("read digests (create with -update): %v", err)
	}
	if salt != harness.DefaultCacheSalt {
		t.Fatalf("%s was recorded under salt %q, the code is at %q: regenerate with -update", path, salt, harness.DefaultCacheSalt)
	}
	for _, name := range names {
		if w, ok := want[name]; !ok {
			t.Errorf("lifecycle spec %s has no recorded digest", name)
		} else if got[name] != w {
			t.Errorf("lifecycle spec %s: digest %s, recorded %s under unchanged salt %q: a result change needs a salt bump",
				name, got[name], w, salt)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("recorded lifecycle spec %s is no longer in the list", name)
		}
	}
}
