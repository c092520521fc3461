package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/faults"
	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// updateFingerprints rewrites spec_fingerprints.golden. A spec change
// that moves a fingerprint moves cache keys, so regenerate only together
// with a canonicalVersion bump:
//
//	go test ./internal/scenario -run TestSpecFingerprints -update-fingerprints
var updateFingerprints = flag.Bool("update-fingerprints", false, "rewrite spec_fingerprints.golden")

const fingerprintGolden = "testdata/spec_fingerprints.golden"

// specFingerprintCases returns one fingerprint per named case: every
// registry preset, each preset constructor at every config the E8–E12
// studies build at their default axes and 60 s horizon, the benchmark's
// 8-piconet configs, and the SHA-256 of Marshal for the randomized
// specs of TestScatternetCodecRoundTrip.
func specFingerprintCases() map[string]string {
	out := make(map[string]string)
	add := func(name string, spec Spec) { out[name] = spec.Fingerprint() }
	for _, name := range Names() {
		spec, _ := Lookup(name)
		add("registry/"+name, spec)
	}
	const horizon = 60 * time.Second
	for _, a := range []time.Duration{2 * time.Second, 4 * time.Second, 8 * time.Second} {
		add(fmt.Sprintf("e8/%v", a), Churn(ChurnConfig{MeanArrival: a, Duration: horizon}))
	}
	for _, k := range AllBEPollers {
		add(fmt.Sprintf("e8b/%s", k), Churn(ChurnConfig{Duration: horizon, Poller: k}))
	}
	for _, load := range []float64{30, 60} {
		for _, n := range []int{1, 2, 4, 6, 8} {
			add(fmt.Sprintf("e9/%dpn/%g", n, load),
				Scatternet(ScatternetConfig{Piconets: n, BEKbps: load, Duration: horizon}))
		}
	}
	for _, n := range []int{1, 2, 4, 8} {
		for _, derated := range []bool{false, true} {
			add(fmt.Sprintf("e10/%dpn/derated=%v", n, derated), Scatternet(ScatternetConfig{
				Piconets: n, BEKbps: 60, Duration: horizon, OnlineGS: 2, InterferenceAware: derated,
			}))
		}
	}
	for _, n := range []int{1, 3} {
		for _, d := range []time.Duration{400 * time.Millisecond, 800 * time.Millisecond} {
			for _, p := range []faults.Policy{faults.PolicyNone, faults.PolicyDegrade, faults.PolicyHandoff} {
				add(fmt.Sprintf("e11/%d/%v/%s", n, d, p), FaultScenario(FaultScenarioConfig{
					Outages: n, OutageDuration: d, Policy: p, Duration: horizon,
				}))
			}
		}
	}
	add("e12/1hop", Bridged(BridgedConfig{Hops: 1, Duty: 0.3, GSPerPiconet: 1, Duration: horizon}))
	for _, h := range []int{2, 3} {
		for _, duty := range []float64{0.3, 0.5, 0.7} {
			for _, naive := range []bool{false, true} {
				add(fmt.Sprintf("e12/%dhop/%g/naive=%v", h, duty, naive), Bridged(BridgedConfig{
					Hops: h, Duty: duty, GSPerPiconet: 1, Duration: horizon, Naive: naive,
				}))
			}
		}
	}
	for _, d := range []time.Duration{0, 2 * time.Second, 10 * time.Second, sim.SlotGrain} {
		add(fmt.Sprintf("bench/8pn/%v", d), Scatternet(ScatternetConfig{Piconets: 8, Duration: d}))
	}
	marshal := func(name string, spec Spec) {
		data, err := Marshal(spec)
		if err != nil {
			data = []byte("error: " + err.Error())
		}
		sum := sha256.Sum256(data)
		out[name] = hex.EncodeToString(sum[:])
	}
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 100; round++ {
		marshal(fmt.Sprintf("codec/%03d", round), randomScatternetSpec(rng, round))
	}
	for _, name := range Names() {
		spec, _ := Lookup(name)
		marshal("marshal/"+name, spec)
	}
	// Zero durations in every block: required fields render "0s",
	// optional ones are omitted or render "".
	edge := edgeSpec()
	marshal("marshal/edge", edge)
	add("canonical/edge", edge)
	twoOps := RemoveAt(time.Second, 1)
	twoOps.DropSCO = 2
	add("canonical/two-ops", Spec{Timeline: []TimelineEvent{twoOps}})
	add("canonical/no-op", Spec{Timeline: []TimelineEvent{{At: time.Second}}})
	add("canonical/bad-mode", Spec{Mode: 7})
	add("canonical/bad-policy", Spec{Recovery: RecoverySpec{Policy: "reboot"}})
	return out
}

// edgeSpec sets every duration-bearing block of the codec with zero
// durations, plus out-of-range directions and packet-type sets.
func edgeSpec() Spec {
	gs := GSFlow{ID: 1, Slave: 1, Dir: piconet.Up, MinSize: 144, MaxSize: 176}
	be := BEFlow{ID: 2, Slave: 2, Dir: piconet.Down, RateKbps: 10, PacketSize: 176}
	pn := PiconetSpec{Name: "a", GS: []GSFlow{gs}, BE: []BEFlow{be}}
	odd := PiconetSpec{
		Name: "b",
		GS:   []GSFlow{{ID: 3, Slave: 3, MinSize: 144, MaxSize: 176, Allowed: 1}},
		BE: []BEFlow{{ID: 4, Slave: 4, Dir: 3, RateKbps: 1, PacketSize: 17,
			Allowed: baseband.TypeSet(0).Add(baseband.TypeNULL).Add(baseband.TypePOLL).Add(baseband.TypeDH1)}},
	}
	rt := RouteSpec{ID: 30, Bridges: []string{"b1"}, MinSize: 144, MaxSize: 176}
	return Spec{
		Piconets:     []PiconetSpec{pn, odd},
		Interference: InterferenceSpec{Enabled: true},
		Bridges:      []BridgeSpec{{Name: "b1", Residency: []ResidencySpec{{Piconet: "a", Slave: 6}, {Piconet: "b", Slave: 6}}}},
		Routes:       []RouteSpec{rt, {ID: 31, Source: "b", Slave: 2, Dir: 5, Allowed: 1 << 30}},
		Faults: faults.Plan{
			Outages:    []faults.LinkOutage{{Piconet: "a", Slave: 1}},
			Departures: []faults.SlaveDeparture{{Piconet: "a", Slave: 2}},
			Crashes:    []faults.MasterCrash{{Piconet: "b"}},
		},
		Recovery: RecoverySpec{Policy: faults.PolicyDegrade},
		Timeline: []TimelineEvent{
			AddGSAt(0, gs), AddBEAt(0, be), AddRouteAt(0, rt), RenegotiateAt(0, 1, 0),
			AddPiconetAt(0, PiconetSpec{Name: "c", GS: []GSFlow{gs}}),
		},
	}
}

// TestSpecFingerprints pins what the preset generators and the codec
// produce: a generator or codec refactor must leave every line as is.
func TestSpecFingerprints(t *testing.T) {
	got := specFingerprintCases()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if *updateFingerprints {
		var b strings.Builder
		b.WriteString("# name fingerprint (see TestSpecFingerprints)\n")
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(fingerprintGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, fp, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad golden line %q", line)
		}
		want[name] = fp
	}
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: fingerprint %s, golden %s", name, got[name], want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, test builds %d", len(want), len(got))
	}
}
