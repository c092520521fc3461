package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/core"
	"bluegs/internal/faults"
	"bluegs/internal/piconet"
)

// canonicalVersion tags the canonical rendering format. Bump it whenever
// the rendering below changes shape, so stale on-disk caches keyed on old
// fingerprints can never alias new ones. v2 renders the declarative radio
// spec and the timeline; v3 adds the scatternet axis: piconet arrays,
// interference parameters, batched traffic and piconet-addressed timeline
// events; v4 adds the interference-aware admission knobs (derating); v5
// replaces the hand-written text form with the normalized v2 codec JSON.
const canonicalVersion = "spec-canon/v5"

// WithDefaults returns the spec with every zero field replaced by the
// default scenario.Run would apply. Run itself uses it, so a spec and its
// defaulted twin are guaranteed to describe the same simulation — which is
// what lets Canonical (and the run cache built on it) treat them as one.
func (s Spec) WithDefaults() Spec {
	if s.Duration <= 0 {
		s.Duration = 30 * time.Second
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Allowed.Empty() {
		s.Allowed = baseband.PaperTypes
	}
	if s.Mode == 0 {
		s.Mode = core.VariableInterval
	}
	if s.BEPoller == "" {
		// The empty kind runs PFP (see NewBEPoller): normalize so the
		// implicit and explicit spellings of the same simulation share
		// one canonical rendering and cache entry.
		s.BEPoller = BEPFP
	}
	if s.DelayTarget <= 0 {
		s.DelayTarget = 40 * time.Millisecond
	}
	s.Interference = s.Interference.withDefaults()
	// The admission-derating knobs are inert without the interference
	// coupling, and the static override is inert without the knob or
	// outside (0,1): normalize the inert spellings to zero so equivalent
	// specs share one canonical rendering.
	if !s.Interference.Enabled {
		s.InterferenceAwareAdmission = false
	}
	if !s.InterferenceAwareAdmission || s.AdmissionDerate <= 0 || s.AdmissionDerate >= 1 {
		s.AdmissionDerate = 0
	}
	// Defaulted timeline targets resolve to the first piconet's name, so
	// an explicit and an implicit address of the same piconet describe —
	// and fingerprint as — the same simulation. Flat specs resolve to ""
	// and stay untouched. Scatternet-level operations (piconet churn and
	// routes) stay unaddressed: they act on the scatternet, not a piconet.
	def := ""
	if s.scatternet() {
		s.Piconets = withPiconetNames(s.Piconets)
		def = s.Piconets[0].Name
	}
	// Routes: resolve the defaulted source, budget and label, so implicit
	// and explicit spellings of the same route fingerprint identically.
	normRoute := func(rt RouteSpec) *RouteSpec {
		if rt.Name == "" {
			rt.Name = fmt.Sprintf("route-%d", rt.ID)
		}
		if rt.Source == "" {
			rt.Source = s.defaultPiconetName()
		}
		if rt.DelayTarget <= 0 {
			rt.DelayTarget = s.DelayTarget
		}
		return &rt
	}
	if len(s.Routes) > 0 {
		rts := make([]RouteSpec, len(s.Routes))
		for i, rt := range s.Routes {
			rts[i] = *normRoute(rt)
		}
		s.Routes = rts
	}
	// The caller's timeline is copied once, at the first event to change.
	var tl []TimelineEvent
	for i, ev := range s.Timeline {
		global := ev.AddPiconet != nil || ev.RemovePiconet != "" ||
			ev.AddRoute != nil || ev.RemoveRoute != piconet.None
		retarget := def != "" && ev.Piconet == "" && !global
		if !retarget && ev.AddRoute == nil {
			continue
		}
		if tl == nil {
			tl = append([]TimelineEvent(nil), s.Timeline...)
		}
		if retarget {
			tl[i].Piconet = def
		}
		if ev.AddRoute != nil {
			tl[i].AddRoute = normRoute(*ev.AddRoute)
		}
	}
	if tl != nil {
		s.Timeline = tl
	}
	// Recovery: a policy implies supervision; the degrade factor is
	// inert outside its policy. Normalize so the
	// implicit and explicit spellings fingerprint identically.
	if s.Recovery.Supervision < 0 {
		s.Recovery.Supervision = 0
	}
	if s.Recovery.Policy != faults.PolicyNone && s.Recovery.Supervision == 0 {
		s.Recovery.Supervision = 3
	}
	if s.Recovery.Policy == faults.PolicyDegrade {
		if s.Recovery.DegradeFactor <= 1 {
			s.Recovery.DegradeFactor = 4
		}
	} else {
		s.Recovery.DegradeFactor = 0
	}
	// Fault-plan piconet names resolve to the first piconet, like
	// defaulted timeline targets (a no-op for flat specs, whose only
	// piconet is named "").
	s.Faults = s.Faults.Resolve(s.defaultPiconetName())
	return s
}

// Canonical renders the spec for content addressing: the version line,
// then the compact v2 JSON (see Marshal) of the defaulted spec with its
// report labels — Spec.Name and route names — stripped. Two specs render
// identically exactly when they describe the same simulation (after
// defaulting). The rendering is the input of Fingerprint and therefore of
// the harness run cache. Runtime hooks (tracers, live radio model
// instances) never live on the Spec, and KernelWorkers stays outside the
// codec, so neither enters the rendering.
//
// Canonical is total: a spec the codec refuses (a bad mode or recovery
// policy, a timeline event with several operations, a NaN or infinite
// parameter) renders the error after the version line. RunWith refuses
// such specs, so no result is ever stored under that rendering.
func (s Spec) Canonical() string {
	fs, err := toV2(s.WithDefaults())
	var data []byte
	if err == nil {
		fs.Name = ""
		for i := range fs.Routes {
			fs.Routes[i].Name = ""
		}
		for _, ev := range fs.Timeline {
			if ev.AddRoute != nil {
				ev.AddRoute.Name = ""
			}
		}
		data, err = json.Marshal(fs)
	}
	if err != nil {
		return canonicalVersion + "\nerror: " + err.Error()
	}
	return canonicalVersion + "\n" + string(data)
}

// Fingerprint is the SHA-256 of the canonical rendering, hex encoded: a
// content address for the complete run specification (spec plus seed plus
// horizon). The harness cache keys on it, combined with a code-version
// salt.
func (s Spec) Fingerprint() string {
	sum := sha256.Sum256([]byte(s.Canonical()))
	return hex.EncodeToString(sum[:])
}
