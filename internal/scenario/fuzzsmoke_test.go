package scenario

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
	"bluegs/internal/radio"
)

// randomTimeline appends a burst of randomized-but-valid events to a
// spec: flow arrivals and departures, SCO churn, and piconet churn. Flow
// ids start far above any preset's range; slaves stay within 1..7 so a
// piconet can always host them; piconet removals only target
// fuzz-added piconets (a preset's piconets stay up). Runtime rejections
// (admission refusals, SCO that does not fit) are expected outcomes —
// what the smoke asserts is that no preset turns them into a fatal
// engine error.
func randomTimeline(rng *rand.Rand, spec Spec) []TimelineEvent {
	dirs := []piconet.Direction{piconet.Up, piconet.Down}
	targets := []string{""}
	if spec.scatternet() {
		targets = targets[:0]
		for _, ps := range spec.Piconets {
			targets = append(targets, ps.Name)
		}
	}
	horizon := spec.Duration
	if horizon <= 0 {
		horizon = 2 * time.Second
	}
	var events []TimelineEvent
	var added []piconet.FlowID
	addedTarget := map[piconet.FlowID]string{}
	var fuzzPNs []string
	var routes []piconet.FlowID
	for _, rt := range spec.Routes {
		routes = append(routes, rt.ID)
	}
	id := piconet.FlowID(10000)
	at := func() time.Duration { return time.Duration(rng.Int63n(int64(horizon))) }
	for e := 0; e < 12; e++ {
		target := targets[rng.Intn(len(targets))]
		switch rng.Intn(8) {
		case 0:
			events = append(events, AddGSAt(at(), GSFlow{
				ID: id, Slave: piconet.SlaveID(1 + rng.Intn(7)), Dir: dirs[rng.Intn(2)],
				Interval: time.Duration(10+rng.Intn(40)) * time.Millisecond,
				MinSize:  100, MaxSize: 176,
			}).For(target))
			added, addedTarget[id] = append(added, id), target
			id++
		case 1:
			events = append(events, AddBEAt(at(), BEFlow{
				ID: id, Slave: piconet.SlaveID(1 + rng.Intn(7)), Dir: dirs[rng.Intn(2)],
				RateKbps: 5 + 40*rng.Float64(), PacketSize: 176,
			}).For(target))
			added, addedTarget[id] = append(added, id), target
			id++
		case 2:
			if len(added) == 0 {
				continue
			}
			victim := added[rng.Intn(len(added))]
			events = append(events, RemoveAt(at(), victim).For(addedTarget[victim]))
		case 3:
			types := []baseband.PacketType{baseband.TypeHV1, baseband.TypeHV2, baseband.TypeHV3}
			events = append(events, AddSCOAt(at(), SCOLinkSpec{
				Slave: piconet.SlaveID(1 + rng.Intn(7)), Type: types[rng.Intn(3)],
			}).For(target))
		case 4:
			events = append(events, DropSCOAt(at(), piconet.SlaveID(1+rng.Intn(7))).For(target))
		case 5:
			if len(fuzzPNs) > 0 && rng.Intn(2) == 0 {
				events = append(events, RemovePiconetAt(at(), fuzzPNs[rng.Intn(len(fuzzPNs))]))
				continue
			}
			name := fmt.Sprintf("fuzz-pn-%d", len(fuzzPNs)+1)
			events = append(events, AddPiconetAt(at(), PiconetSpec{
				Name: name,
				BE:   []BEFlow{{ID: 1, Slave: 1, Dir: piconet.Up, RateKbps: 20, PacketSize: 176}},
			}))
			fuzzPNs = append(fuzzPNs, name)
			targets = append(targets, name)
		case 6:
			// Route churn: add a single-hop route (valid in any piconet,
			// batch traffic aside), or remove one added earlier — or the
			// preset's own route, exercising mid-run route teardown.
			if spec.BatchTraffic {
				continue
			}
			if len(routes) > 0 && rng.Intn(3) == 0 {
				victim := routes[rng.Intn(len(routes))]
				events = append(events, RemoveRouteAt(at(), victim))
				continue
			}
			events = append(events, AddRouteAt(at(), RouteSpec{
				ID: id, Source: target, Slave: piconet.SlaveID(1 + rng.Intn(7)), Dir: dirs[rng.Intn(2)],
				Interval: time.Duration(10+rng.Intn(40)) * time.Millisecond,
				MinSize:  100, MaxSize: 176,
				DelayTarget: time.Duration(30+rng.Intn(120)) * time.Millisecond,
			}))
			routes = append(routes, id)
			id++
		case 7:
			// Renegotiation: retarget an earlier fuzz-added flow (runtime
			// rejections — BE flows, not-yet-installed flows, infeasible
			// targets — are expected; engine errors are not).
			if len(added) == 0 {
				continue
			}
			victim := added[rng.Intn(len(added))]
			events = append(events, RenegotiateAt(at(), victim,
				time.Duration(20+rng.Intn(100))*time.Millisecond).For(addedTarget[victim]))
		}
	}
	return events
}

// TestRegistryFuzzSmoke runs every registered scenario — the scatternet
// presets included — under randomized 2 s timelines (fixed seeds, so CI
// failures reproduce). The invariant: whatever churn the timeline throws
// at a preset, the run completes; refusals land in the admission log,
// never as engine errors. The CI fuzz-smoke step invokes exactly this
// test.
func TestRegistryFuzzSmoke(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				spec, ok := Lookup(name)
				if !ok {
					t.Fatal("registered name does not resolve")
				}
				spec.Duration = 2 * time.Second
				rng := rand.New(rand.NewSource(seed))
				spec.Timeline = append(spec.Timeline, randomTimeline(rng, spec)...)
				res, err := Run(spec)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Elapsed != spec.Duration {
					t.Fatalf("seed %d: run stopped early at %v", seed, res.Elapsed)
				}
			}
		})
	}
}

// TestRegistryFuzzSmokeKernelWorkers reruns the fuzz smoke over every
// registered preset with the sharded kernel multiplexed onto several
// workers, asserting the fingerprint-keyed result — report, admission
// log, kernel event count — is byte-identical to the single-worker run.
// Presets whose timeline churn forces a single shard group exercise the
// one-group run instead.
func TestRegistryFuzzSmokeKernelWorkers(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				spec, ok := Lookup(name)
				if !ok {
					t.Fatal("registered name does not resolve")
				}
				spec.Duration = 2 * time.Second
				rng := rand.New(rand.NewSource(seed))
				spec.Timeline = append(spec.Timeline, randomTimeline(rng, spec)...)
				fp := spec.Fingerprint()
				spec.KernelWorkers = 1
				ref, err := Run(spec)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				spec.KernelWorkers = 4
				if spec.Fingerprint() != fp {
					t.Fatalf("seed %d: KernelWorkers changed the fingerprint", seed)
				}
				got, err := Run(spec)
				if err != nil {
					t.Fatalf("seed %d workers=4: %v", seed, err)
				}
				if got.Events != ref.Events {
					t.Fatalf("seed %d: %d kernel events at 4 workers, want %d",
						seed, got.Events, ref.Events)
				}
				if got.Report().String() != ref.Report().String() {
					t.Fatalf("seed %d: report diverged across kernel worker counts", seed)
				}
				if len(got.Admissions) != len(ref.Admissions) {
					t.Fatalf("seed %d: admission log diverged: %d vs %d records",
						seed, len(got.Admissions), len(ref.Admissions))
				}
			}
		})
	}
}

// TestRegistryFuzzSmokeInterferenceAware reruns the fuzz smoke with
// interference-aware admission switched on over every preset: the FH
// coupling enabled and a static derate pinned at the 16-piconet estimate,
// conservative enough that whatever piconet churn the random timeline
// produces stays inside every admitted contract. The invariants: the run
// completes, no admitted GS flow violates its (derated) bound, and the
// new spec fields survive a JSON round trip fingerprint-intact.
func TestRegistryFuzzSmokeInterferenceAware(t *testing.T) {
	s16 := 1 - radio.ExpectedCollisionProb(15, 0)
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				spec, ok := Lookup(name)
				if !ok {
					t.Fatal("registered name does not resolve")
				}
				spec.Duration = 2 * time.Second
				spec.Interference.Enabled = true
				spec.InterferenceAwareAdmission = true
				spec.AdmissionDerate = s16
				rng := rand.New(rand.NewSource(seed))
				spec.Timeline = append(spec.Timeline, randomTimeline(rng, spec)...)

				data, err := Marshal(spec)
				if err != nil {
					t.Fatalf("seed %d: marshal: %v", seed, err)
				}
				decoded, err := Unmarshal(data)
				if err != nil {
					t.Fatalf("seed %d: unmarshal: %v", seed, err)
				}
				if !decoded.InterferenceAwareAdmission || decoded.AdmissionDerate != s16 {
					t.Fatalf("seed %d: derating knobs lost in round trip: iaa=%v derate=%g",
						seed, decoded.InterferenceAwareAdmission, decoded.AdmissionDerate)
				}
				if decoded.Fingerprint() != spec.Fingerprint() {
					t.Fatalf("seed %d: fingerprint drifted across JSON round trip", seed)
				}

				res, err := Run(decoded)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Elapsed != spec.Duration {
					t.Fatalf("seed %d: run stopped early at %v", seed, res.Elapsed)
				}
				for _, f := range res.Flows {
					if f.Class == piconet.Guaranteed && f.DelayMax > f.Bound {
						t.Fatalf("seed %d: flow %d (%s) violated its derated bound: max %v > %v",
							seed, f.ID, f.Piconet, f.DelayMax, f.Bound)
					}
				}
			}
		})
	}
}
