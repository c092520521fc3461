package scenario

import (
	"fmt"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/faults"
	"bluegs/internal/piconet"
)

// FaultScenarioConfig parameterises the fault-injection preset behind the
// E11 fault study and the registered "faults-*" scenarios: a loaded
// piconet whose links fail on a declared schedule, a standby piconet with
// spare capacity, and a recovery policy deciding what happens to the
// guarantees.
//
// The faulty piconet carries two GS voice flows at slaves 1 and 2 (a
// piconet carries at most three voice flows at token rate, so the
// handoff target can absorb them) and a 30 kbps best-effort pair at
// slave 6. Every flow requests a 100ms bound: just above the ~91ms
// token-rate minimum of one voice flow, so targets are met exactly at
// near-token rates and the piconets keep admission headroom for
// recoveries (tighter targets are clamped best-effort and saturate every
// piconet).
type FaultScenarioConfig struct {
	// Outages is the number of link-outage windows injected on the
	// faulty piconet, cycling over its GS slaves (default 2).
	Outages int
	// OutageDuration is the length of each outage window (default
	// 400ms — comfortably above the supervision detection floor of
	// three failed polls, ~150ms at voice poll spacing).
	OutageDuration time.Duration
	// Policy is the recovery policy. faults.PolicyNone still arms the
	// supervision timeout (failed links are detected and their flows
	// suspended) but nothing retrieves the contracts — the no-recovery
	// baseline of the study.
	Policy faults.Policy
	// Duration is the simulated horizon (default 12s). The outage
	// schedule is derived from it, so experiment sweeps must pass their
	// horizon here rather than overriding Spec.Duration afterwards.
	Duration time.Duration
}

// faultGSFlows is the number of voice flows on the faulty piconet.
const faultGSFlows = 2

func (c FaultScenarioConfig) withDefaults() FaultScenarioConfig {
	if c.Outages <= 0 {
		c.Outages = 2
	}
	if c.OutageDuration <= 0 {
		c.OutageDuration = 400 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 12 * time.Second
	}
	return c
}

// outagePlan derives the deterministic outage schedule: windows start at
// 2s (after admission and warm-up settle), spread evenly across the
// usable horizon, and cycle over the GS slaves so every flow is
// eventually hit. The last window always closes at least a second before
// the horizon so degraded renegotiations have time to deliver.
func (c FaultScenarioConfig) outagePlan(pn string) []faults.LinkOutage {
	const lead = 2 * time.Second
	tail := time.Second
	usable := c.Duration - lead - tail - c.OutageDuration
	if usable < 0 {
		usable = 0
	}
	spacing := usable
	if c.Outages > 1 {
		spacing = usable / time.Duration(c.Outages-1)
	}
	// Never overlap two windows: supervision suspends the slave's flows
	// once per episode, and the study wants each window to be a distinct
	// episode.
	if min := c.OutageDuration + 500*time.Millisecond; spacing < min {
		spacing = min
	}
	out := make([]faults.LinkOutage, 0, c.Outages)
	for j := 0; j < c.Outages; j++ {
		start := lead + time.Duration(j)*spacing
		out = append(out, faults.LinkOutage{
			Piconet: pn,
			Slave:   piconet.SlaveID(j%faultGSFlows + 1),
			Start:   start,
			End:     start + c.OutageDuration,
		})
	}
	return out
}

// FaultScenario builds the fault-injection workload: piconet "pn1"
// carries the GS voice flows and the best-effort floor and suffers the
// declared link outages; piconet "pn2" idles at low load as the handoff
// target. Supervision is always armed (three failed polls), so the three
// policy arms differ only in what happens after detection: nothing
// (PolicyNone), renegotiation at a 4× looser bound when the window ends
// (PolicyDegrade), or a make-before-break move to pn2 (PolicyHandoff).
func FaultScenario(cfg FaultScenarioConfig) Spec {
	cfg = cfg.withDefaults()
	faulty := PiconetSpec{Name: "pn1", GS: voiceFlows(faultGSFlows, 0), BE: bePair(100, 6, 30, 0)}
	// The standby piconet carries one flow of its own — it must be a
	// live, polled piconet, not an empty shell — at slave 5 / id 50, clear
	// of the movable set (ids 1..2 at slaves 1..2), so every handoff
	// admits without an identity clash.
	standby := PiconetSpec{Name: "pn2", GS: []GSFlow{voice(50, 5, piconet.Up, 3*time.Millisecond)}}
	policy := string(cfg.Policy)
	if policy == "" {
		policy = "none"
	}
	return Spec{
		Name:                       fmt.Sprintf("faults-%s", policy),
		Piconets:                   []PiconetSpec{faulty, standby},
		DelayTarget:                100 * time.Millisecond,
		Allowed:                    baseband.PaperTypes,
		Duration:                   cfg.Duration,
		Seed:                       1,
		ARQ:                        true,
		Interference:               InterferenceSpec{Enabled: true},
		InterferenceAwareAdmission: true,
		Faults:                     faults.Plan{Outages: cfg.outagePlan("pn1")},
		Recovery: RecoverySpec{
			Supervision: 3,
			Policy:      cfg.Policy,
		},
	}
}
