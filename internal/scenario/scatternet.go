package scenario

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"bluegs/internal/admission"
	"bluegs/internal/baseband"
	"bluegs/internal/core"
	"bluegs/internal/piconet"
	"bluegs/internal/radio"
)

// PiconetSpec describes one piconet of a scatternet: its name (the
// address timeline events target) and its static flow and voice-link
// sets. Spec-wide knobs — delay target, poller, allowed types, radio,
// ARQ — apply to every piconet; what varies per piconet is the load.
type PiconetSpec struct {
	// Name addresses the piconet from the timeline (add_gs etc. target
	// it) and labels its rows in reports. Names must be unique; an empty
	// name defaults to "pn<index+1>".
	Name string
	// GS, BE and SCO are the piconet's static sets, with the same
	// semantics as the Spec-level fields of a single-piconet run. Flow
	// ids must be unique within the piconet (two piconets may reuse an
	// id: flows are addressed as (piconet, id)).
	GS  []GSFlow
	BE  []BEFlow
	SCO []SCOLinkSpec
}

// InterferenceSpec couples the piconets of a scatternet through the
// shared 79-channel FH spectrum: every transmitted packet collides with
// probability 1 − ∏(1 − q_j/Channels) over the other piconets, where q_j
// is 1 for a piconet on air at that instant and its measured utilization
// otherwise (see radio.Medium). The zero value disables the coupling —
// piconets then share only the kernel clock. The v2 file form is the
// codec's "interference" block.
type InterferenceSpec struct {
	// Enabled switches the coupling on.
	Enabled bool
	// Channels is the hop-set size (default 79).
	Channels int
	// Window is the minimum elapsed time utilization is estimated over
	// (default 250ms).
	Window time.Duration
}

// withDefaults pins the parameters: enabled specs get the standard
// hop-set and window, disabled specs zero out so equivalent specs share
// one canonical rendering.
func (i InterferenceSpec) withDefaults() InterferenceSpec {
	if !i.Enabled {
		return InterferenceSpec{}
	}
	if i.Channels <= 0 {
		i.Channels = radio.DefaultFHChannels
	}
	if i.Window <= 0 {
		i.Window = radio.DefaultUtilizationWindow
	}
	return i
}

// scatternet reports whether the spec uses the explicit multi-piconet
// form.
func (s Spec) scatternet() bool { return len(s.Piconets) > 0 }

// piconetSpecs returns the effective piconet list: the explicit Piconets
// array, or the flat flow fields wrapped as the single unnamed piconet
// (the degenerate case every pre-scatternet spec is).
func (s Spec) piconetSpecs() []PiconetSpec {
	if s.scatternet() {
		return s.Piconets
	}
	return []PiconetSpec{{GS: s.GS, BE: s.BE, SCO: s.SCO}}
}

// defaultPiconetName is the piconet a timeline event with an empty
// Piconet field targets: the first piconet ("" for flat specs).
func (s Spec) defaultPiconetName() string {
	if s.scatternet() {
		return s.Piconets[0].Name
	}
	return ""
}

// withPiconetNames fills empty piconet names positionally ("pn<i+1>"),
// on a copy when anything changes. WithDefaults, Marshal and the
// validators share it, so an unnamed piconet means the same piconet
// everywhere — Run, Canonical and the file form can never disagree.
func withPiconetNames(pns []PiconetSpec) []PiconetSpec {
	for i, ps := range pns {
		if ps.Name != "" {
			continue
		}
		out := append([]PiconetSpec(nil), pns...)
		for j := i; j < len(out); j++ {
			if out[j].Name == "" {
				out[j].Name = fmt.Sprintf("pn%d", j+1)
			}
		}
		return out
	}
	return pns
}

// validate runs the static checks Run and Unmarshal share, on the
// defaulted spec (names filled, timeline targets resolved): the same view
// Run and Canonical act on.
func (s Spec) validate() error {
	if s.Mode != core.FixedInterval && s.Mode != core.VariableInterval {
		return fmt.Errorf("%w: mode %v", ErrBadSpec, s.Mode)
	}
	if !finite(reflect.ValueOf(s)) {
		return fmt.Errorf("%w: NaN or infinite parameter", ErrBadSpec)
	}
	if err := s.validateScatternet(); err != nil {
		return err
	}
	if err := validateBridges(s); err != nil {
		return err
	}
	if err := validateTimeline(s); err != nil {
		return err
	}
	return validateFaults(s)
}

// finite reports whether every float in v is a number. NaN and ±Inf have
// no JSON form, so the codec, and with it Canonical, cannot encode them.
func finite(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Float64:
		return !math.IsNaN(v.Float()) && !math.IsInf(v.Float(), 0)
	case reflect.Pointer:
		return v.IsNil() || finite(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !finite(v.Field(i)) {
				return false
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if !finite(v.Index(i)) {
				return false
			}
		}
	}
	return true
}

// validateScatternet checks the piconets' flow sets (see validateFlows)
// and the multi-piconet form: flat flow fields must stay empty and names
// (after positional defaulting) must be unique.
func (s Spec) validateScatternet() error {
	if !s.scatternet() {
		return PiconetSpec{GS: s.GS, BE: s.BE}.validateFlows()
	}
	if len(s.GS)+len(s.BE)+len(s.SCO) > 0 {
		return fmt.Errorf("%w: flat GS/BE/SCO fields must be empty when Piconets is set", ErrBadSpec)
	}
	pns := withPiconetNames(s.Piconets)
	names := make(map[string]bool, len(pns))
	for _, ps := range pns {
		if names[ps.Name] {
			return fmt.Errorf("%w: duplicate piconet name %q", ErrBadSpec, ps.Name)
		}
		names[ps.Name] = true
		if err := ps.validateFlows(); err != nil {
			return fmt.Errorf("piconet %q: %w", ps.Name, err)
		}
	}
	return nil
}

// validateFlows checks one piconet's static sets: flow ids unique, every
// flow directed.
func (ps PiconetSpec) validateFlows() error {
	seen := make(map[piconet.FlowID]bool, len(ps.GS)+len(ps.BE))
	check := func(id piconet.FlowID, dir piconet.Direction) error {
		if id == piconet.None {
			return fmt.Errorf("%w: zero flow id", ErrBadSpec)
		}
		if seen[id] {
			return fmt.Errorf("%w: duplicate flow id %d", ErrBadSpec, id)
		}
		seen[id] = true
		return validDir(id, dir)
	}
	for _, g := range ps.GS {
		if err := check(g.ID, g.Dir); err != nil {
			return err
		}
	}
	for _, b := range ps.BE {
		if err := check(b.ID, b.Dir); err != nil {
			return err
		}
	}
	return nil
}

// validDir refuses a flow with no direction (or a stray value).
func validDir(id piconet.FlowID, dir piconet.Direction) error {
	if dir != piconet.Up && dir != piconet.Down {
		return fmt.Errorf("%w: flow %d: direction %v (want up or down)", ErrBadSpec, id, dir)
	}
	return nil
}

// flowIDSet collects the piconet's static flow ids (the base set
// timeline validation extends with the additions targeting it).
func (ps PiconetSpec) flowIDSet() map[piconet.FlowID]bool {
	flows := make(map[piconet.FlowID]bool, len(ps.GS)+len(ps.BE))
	for _, g := range ps.GS {
		flows[g.ID] = true
	}
	for _, b := range ps.BE {
		flows[b.ID] = true
	}
	return flows
}

// flowCount is the number of static flows across all piconets.
func (s Spec) flowCount() int {
	n := 0
	for _, ps := range s.piconetSpecs() {
		n += len(ps.GS) + len(ps.BE)
	}
	return n
}

// PiconetResult is one piconet's share of a scatternet run: the same
// measurements a single-piconet Result carries, scoped to the piconet.
type PiconetResult struct {
	// Name is the piconet's name ("" for flat single-piconet specs).
	Name string
	// Removed reports the piconet left the scatternet mid-run (its
	// statistics are final as of the removal).
	Removed bool
	// Crashed reports the piconet's master crashed per the fault plan:
	// statistics are final as of the crash, and its flows were orphaned
	// rather than retired.
	Crashed bool
	Flows   []FlowResult
	// SlaveKbps and SCOKbps are per-slave delivered throughputs within
	// this piconet.
	SlaveKbps map[piconet.SlaveID]float64
	SCOKbps   map[piconet.SlaveID]float64
	Slots     piconet.SlotAccount
	GSPolls   uint64
	BEPolls   uint64
	Skipped   uint64
	// Admitted is the piconet's admission plan at the end of the run;
	// Admissions its slice of the online admission log.
	Admitted   []*admission.PlannedFlow
	Admissions []AdmissionRecord
	// Utilization is the piconet's measured channel occupancy at the end
	// of the run (set only when interference is enabled).
	Utilization float64
}

// ScatternetConfig parameterises the scatternet preset generator. The
// zero value gives the registered "scatternet" preset: four co-located
// piconets, each with two 64 kbps GS voice flows under a 40ms target and
// a 60 kbps best-effort pair, ARQ on, FH co-channel interference enabled.
type ScatternetConfig struct {
	// Piconets is the piconet count (default 4).
	Piconets int
	// BEKbps is the per-direction best-effort load at each piconet's
	// slave 6 (default 60; negative disables the BE pair).
	BEKbps float64
	// Duration is the simulated horizon (default 30s).
	Duration time.Duration
	// InterferenceAware switches the interference-aware admission
	// derating on (Spec.InterferenceAwareAdmission): bounds are promised
	// against the derated service rate instead of the ideal channel.
	InterferenceAware bool
	// OnlineGS adds this many extra GS voice flows per piconet arriving
	// through the paper's online admission test (timeline add-gs events,
	// staggered from 1s at the free slaves 3, 4, 5 and 7). They are the
	// accept-ratio probe of the E10 admission study: an ideal admission
	// accepts them and erodes everyone's bounds; a derated one refuses
	// what the scatternet cannot carry. Clamped to 0..4.
	OnlineGS int
}

// onlineSlaves are the slaves free for online GS arrivals: above the two
// static voice flows, skipping the BE pair's slave 6.
var onlineSlaves = []piconet.SlaveID{3, 4, 5, 7}

func (c ScatternetConfig) withDefaults() ScatternetConfig {
	if c.Piconets < 1 {
		c.Piconets = 4
	}
	if c.BEKbps == 0 {
		c.BEKbps = 60
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.OnlineGS > len(onlineSlaves) {
		c.OnlineGS = len(onlineSlaves)
	}
	if c.OnlineGS < 0 {
		c.OnlineGS = 0
	}
	return c
}

// Scatternet builds N co-located identical piconets named "pn1".."pnN",
// each carrying the paper's voice-style GS flows plus a best-effort
// floor, coupled through the FH co-channel interference model. It is the
// workload of the E9 scatternet study: with one piconet the paper's
// delay guarantees hold exactly; as piconets are added, hop collisions
// consume the slack the admission test reasoned with, and the per-piconet
// bounds erode.
func Scatternet(cfg ScatternetConfig) Spec {
	cfg = cfg.withDefaults()
	var pns []PiconetSpec
	for i := 0; i < cfg.Piconets; i++ {
		// Stagger sources across piconets too, so the scatternet does
		// not transmit in lockstep.
		ps := PiconetSpec{Name: fmt.Sprintf("pn%d", i+1), GS: voiceFlows(2, time.Duration(i)*time.Millisecond)}
		if cfg.BEKbps > 0 {
			ps.BE = bePair(100, 6, cfg.BEKbps, 0)
		}
		pns = append(pns, ps)
	}
	// Online arrivals: OnlineGS extra voice flows per piconet negotiate
	// admission mid-run, staggered so no two arrivals share an instant.
	var timeline []TimelineEvent
	for k := 0; k < cfg.OnlineGS; k++ {
		for i := 0; i < cfg.Piconets; i++ {
			at := time.Second + time.Duration(k*cfg.Piconets+i)*100*time.Millisecond
			flow := voice(piconet.FlowID(10+k), onlineSlaves[k], alternating(k), 0)
			timeline = append(timeline, AddGSAt(at, flow).For(fmt.Sprintf("pn%d", i+1)))
		}
	}
	name := fmt.Sprintf("scatternet-%dpn", cfg.Piconets)
	if cfg.InterferenceAware {
		name += "-derated"
	}
	return Spec{
		Name:                       name,
		Piconets:                   pns,
		DelayTarget:                40 * time.Millisecond,
		Allowed:                    baseband.PaperTypes,
		Duration:                   cfg.Duration,
		Seed:                       1,
		ARQ:                        true,
		Interference:               InterferenceSpec{Enabled: true},
		InterferenceAwareAdmission: cfg.InterferenceAware,
		Timeline:                   timeline,
	}
}
