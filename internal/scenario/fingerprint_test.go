package scenario

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/core"
	"bluegs/internal/faults"
	"bluegs/internal/piconet"
)

func TestCanonicalDefaultsInvariant(t *testing.T) {
	// A spec and its explicitly defaulted twin describe the same
	// simulation, so they must share a canonical form.
	bare := Paper(40 * time.Millisecond)
	bare.Duration, bare.Seed = 0, 0
	full := bare
	full.Duration, full.Seed = 30*time.Second, 1
	if bare.Canonical() != full.Canonical() {
		t.Fatalf("defaulted specs diverge:\n%s\nvs\n%s", bare.Canonical(), full.Canonical())
	}
	if bare.Fingerprint() != full.Fingerprint() {
		t.Fatal("defaulted specs fingerprint differently")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := Paper(40 * time.Millisecond)
	base.Duration = 10 * time.Second
	fp := base.Fingerprint()
	if len(fp) != 64 {
		t.Fatalf("fingerprint %q is not a sha256 hex digest", fp)
	}

	// At least one row per Spec field: the codec and the fingerprint
	// share one rendering, so a field the codec forgets would drop out of
	// both and no round trip could notice. The reflect pass below fails
	// on any field without a row. Name and KernelWorkers must not move
	// the fingerprint (TestFingerprintIgnoresLabels,
	// TestShardedFingerprintIgnoresWorkers).
	ms := time.Millisecond
	rows := []struct {
		field, name string
		mutate      func(*Spec)
	}{
		{"Seed", "seed", func(s *Spec) { s.Seed = 2 }},
		{"Duration", "duration", func(s *Spec) { s.Duration = 11 * time.Second }},
		{"DelayTarget", "target", func(s *Spec) { s.DelayTarget = 42 * ms }},
		{"Mode", "mode", func(s *Spec) { s.Mode = core.FixedInterval }},
		{"Rules", "rules", func(s *Spec) { s.Rules, s.RulesSet = core.PostponeAfterPacket, true }},
		{"RulesSet", "rules-set", func(s *Spec) { s.RulesSet = true }},
		{"BEPoller", "poller", func(s *Spec) { s.BEPoller = BERoundRobin }},
		{"Allowed", "allowed", func(s *Spec) { s.Allowed = s.Allowed.Add(baseband.TypeDH5) }},
		{"Radio", "radio", func(s *Spec) { s.Radio = BERRadio(1e-5) }},
		{"Radio", "ber-rate", func(s *Spec) { s.Radio = BERRadio(2e-5) }},
		{"ARQ", "arq", func(s *Spec) { s.ARQ = true }},
		{"LossRecovery", "loss-recovery", func(s *Spec) { s.LossRecovery = true }},
		{"WithoutPiggybacking", "no-piggyback", func(s *Spec) { s.WithoutPiggybacking = true }},
		{"GS", "gs-flow", func(s *Spec) { s.GS[0].MaxSize = 180 }},
		{"GS", "gs-phase", func(s *Spec) { s.GS[1].Phase = 6 * ms }},
		{"BE", "be-flow", func(s *Spec) { s.BE[0].RateKbps = 42 }},
		{"SCO", "sco", func(s *Spec) { s.SCO = []SCOLinkSpec{{Slave: 1, Type: baseband.TypeHV3}} }},
		{"DirectionAware", "dir-aware", func(s *Spec) { s.DirectionAware = true }},
		{"Timeline", "timeline", func(s *Spec) { s.Timeline = []TimelineEvent{RemoveAt(time.Second, 1)} }},
		{"Piconets", "piconets", func(s *Spec) {
			s.Piconets = []PiconetSpec{{GS: s.GS, BE: s.BE}}
			s.GS, s.BE = nil, nil
		}},
		{"Interference", "interference", func(s *Spec) { s.Interference.Enabled = true }},
		{"InterferenceAwareAdmission", "iaa", func(s *Spec) {
			s.Interference.Enabled = true
			s.InterferenceAwareAdmission = true
		}},
		{"AdmissionDerate", "static-derate", func(s *Spec) {
			s.Interference.Enabled = true
			s.InterferenceAwareAdmission = true
			s.AdmissionDerate = 0.9
		}},
		{"BatchTraffic", "batch", func(s *Spec) { s.BatchTraffic = true }},
		{"Faults", "faults", func(s *Spec) {
			s.Faults = faults.Plan{Crashes: []faults.MasterCrash{{At: time.Second}}}
		}},
		{"Recovery", "recovery", func(s *Spec) { s.Recovery = RecoverySpec{Policy: faults.PolicyDegrade} }},
		{"Bridges", "bridges", func(s *Spec) {
			s.Bridges = []BridgeSpec{{Name: "b", Period: 20 * ms, Residency: []ResidencySpec{{Slave: 1, End: 10 * ms}}}}
		}},
		{"Routes", "routes", func(s *Spec) {
			s.Routes = []RouteSpec{{ID: 30, Slave: 1, Dir: piconet.Up, Interval: 20 * ms, MinSize: 144, MaxSize: 176}}
		}},
	}
	covered := map[string]bool{"Name": true, "KernelWorkers": true}
	seen := map[string]string{fp: "base"}
	for _, row := range rows {
		if _, ok := reflect.TypeOf(Spec{}).FieldByName(row.field); !ok {
			t.Fatalf("row %q names no Spec field %q", row.name, row.field)
		}
		covered[row.field] = true
		spec := base
		spec.GS = append([]GSFlow(nil), base.GS...)
		spec.BE = append([]BEFlow(nil), base.BE...)
		row.mutate(&spec)
		got := spec.Fingerprint()
		if prev, dup := seen[got]; dup {
			t.Fatalf("mutation %q collided with %q", row.name, prev)
		}
		seen[got] = row.name
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Spec{})) {
		if !covered[f.Name] {
			t.Errorf("Spec.%s has no mutation row", f.Name)
		}
	}
}

func TestFingerprintIgnoresLabels(t *testing.T) {
	a := Paper(40 * time.Millisecond)
	b := a
	b.Name = "renamed"
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("Name must not enter the fingerprint")
	}
}

// TestCanonicalDeratingKnobs: the interference-aware admission fields
// enter the canonical rendering, but only in the combinations that change
// the simulation — a flat (derating-off) spec keeps one canonical form no
// matter how the inert knobs are set, and it carries neither JSON key.
func TestCanonicalDeratingKnobs(t *testing.T) {
	flat := Paper(40 * time.Millisecond)
	for _, key := range []string{`"interference_aware_admission"`, `"admission_derate"`} {
		if c := flat.Canonical(); strings.Contains(c, key) {
			t.Fatalf("flat canonical form renders the inert knob %s:\n%s", key, c)
		}
	}
	if c := flat.Canonical(); !strings.HasPrefix(c, "spec-canon/v5\n") {
		t.Fatalf("canonical form not tagged v5:\n%s", c)
	}

	// Interference-aware admission without the interference coupling is
	// inert and must normalise away.
	inert := flat
	inert.InterferenceAwareAdmission = true
	inert.AdmissionDerate = 0.9
	if inert.Fingerprint() != flat.Fingerprint() {
		t.Fatal("iaa without Interference.Enabled must not change the fingerprint")
	}

	// An out-of-range static derate normalises to 0 (use the medium
	// estimate) without erasing the iaa flag itself.
	on := flat
	on.Interference.Enabled = true
	on.InterferenceAwareAdmission = true
	wild := on
	wild.AdmissionDerate = 1.5
	if wild.Fingerprint() != on.Fingerprint() {
		t.Fatal("out-of-range AdmissionDerate must normalise to the estimate default")
	}
	if c := on.WithDefaults().Canonical(); !strings.Contains(c, `"interference_aware_admission":true`) ||
		strings.Contains(c, `"admission_derate"`) {
		t.Fatalf("enabled iaa lost in canonical form:\n%s", c)
	}
	static := on
	static.AdmissionDerate = 0.875
	if !strings.Contains(static.Canonical(), `"admission_derate":0.875`) {
		t.Fatalf("static derate lost in canonical form:\n%s", static.Canonical())
	}
}

func TestCanonicalMentionsRadioParameters(t *testing.T) {
	s := Paper(40 * time.Millisecond)
	s.Radio = BERRadio(1e-5)
	if c := s.Canonical(); !strings.Contains(c, `"ber":0.00001`) {
		t.Fatalf("canonical form loses the BER parameter:\n%s", c)
	}
}

// TestCanonicalFaultFreeStability: the fault plan, the recovery block and
// the move_flow event render into the canonical form only when present
// (their JSON keys never appear in a fault-free spec's rendering), so a
// fault-free spec's fingerprint does not depend on the fault layer.
func TestCanonicalFaultFreeStability(t *testing.T) {
	for _, spec := range []Spec{
		Paper(40 * time.Millisecond),
		Baseline(BEPFP),
		Scatternet(ScatternetConfig{}),
	} {
		base := spec.Fingerprint()
		canon := spec.Canonical()
		for _, banned := range []string{`"faults"`, `"recovery"`, `"move_flow"`} {
			if strings.Contains(canon, banned) {
				t.Fatalf("%s: fault-free canonical form contains %q:\n%s", spec.Name, banned, canon)
			}
		}

		// Each fault feature must be semantically relevant: adding it
		// moves the fingerprint, stripping it restores the original.
		faulted := spec
		faulted.Faults = faults.Plan{Outages: []faults.LinkOutage{{Slave: 1, Start: time.Second, End: 2 * time.Second}}}
		if faulted.Fingerprint() == base {
			t.Fatalf("%s: an outage plan did not change the fingerprint", spec.Name)
		}
		recovered := spec
		recovered.Recovery = RecoverySpec{Supervision: 3, Policy: faults.PolicyDegrade}
		if recovered.Fingerprint() == base {
			t.Fatalf("%s: a recovery policy did not change the fingerprint", spec.Name)
		}
		moved := spec
		moved.Timeline = append([]TimelineEvent(nil), spec.Timeline...)
		moved.Timeline = append(moved.Timeline, MoveFlowAt(time.Second, 1, "elsewhere"))
		if moved.Fingerprint() == base {
			t.Fatalf("%s: a move_flow event did not change the fingerprint", spec.Name)
		}
		if spec.Fingerprint() != base {
			t.Fatalf("%s: fingerprint unstable across repeated renderings", spec.Name)
		}
	}
}

// TestCanonicalTotal: a spec the codec refuses still renders (the error
// after the version line), and RunWith refuses it, so no result is ever
// stored under an error rendering.
func TestCanonicalTotal(t *testing.T) {
	multi := RemoveAt(time.Second, 1)
	multi.DropSCO = 2
	bad := map[string]func(*Spec){
		"mode":     func(s *Spec) { s.Mode = core.Mode(7) },
		"policy":   func(s *Spec) { s.Recovery.Policy = "bogus" },
		"multi-op": func(s *Spec) { s.Timeline = []TimelineEvent{multi} },
		"nan-rate": func(s *Spec) { s.BE[0].RateKbps = math.NaN() },
		"inf-ber":  func(s *Spec) { s.Radio = BERRadio(math.Inf(1)) },
	}
	for name, f := range bad {
		spec := Paper(40 * time.Millisecond)
		spec.Duration = time.Second
		spec.BE = append([]BEFlow(nil), spec.BE...)
		f(&spec)
		if c := spec.Canonical(); !strings.HasPrefix(c, "spec-canon/v5\nerror: ") {
			t.Fatalf("%s: want an error rendering, got:\n%s", name, c)
		}
		if _, err := Run(spec); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("%s: Run error %v, want ErrBadSpec", name, err)
		}
	}
}
