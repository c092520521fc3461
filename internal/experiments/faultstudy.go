package experiments

import (
	"fmt"
	"time"

	"bluegs/internal/faults"
	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
	"bluegs/internal/stats"
)

// FaultStudyRow is one point of the fault-injection study: the fault
// scenario workload (see scenario.FaultScenario) under one (outage count,
// outage duration, recovery policy) combination.
type FaultStudyRow struct {
	// Policy is the recovery policy the cell ran (faults.PolicyNone is
	// the supervision-only baseline: failures are detected and the flows
	// suspended, but nothing retrieves the contracts).
	Policy faults.Policy
	// Outages and OutageDuration locate the fault-plan cell.
	Outages        int
	OutageDuration time.Duration
	// GSFlows is the guarantee population per replication: GS result
	// rows excluding handed-off source remnants (their continuation at
	// the target piconet is counted instead), summed over replications.
	GSFlows int
	// Suspended counts supervision-timeout suspensions; Degraded and
	// Moved the accepted recoveries, across replications.
	Suspended, Degraded, Moved int
	// Survived counts flows whose guarantee held end to end: untouched
	// or degraded fate, measured max delay within the exported bound.
	// Survival is Survived/GSFlows — the study's headline metric.
	Survived int
	Survival float64
	// DetectionLatency is the mean supervision detection latency (link
	// failure to declared-dead) across suspensions; zero when nothing
	// was suspended.
	DetectionLatency time.Duration
	// RetainedViolations counts flows still under contract (untouched or
	// degraded) whose measured max delay exceeded their exported bound.
	// Must be zero: suspension flushes queues before late deliveries
	// happen, and recoveries re-admit through the admission test.
	RetainedViolations int
	// GS is the delivered GS throughput summary across replications.
	GS stats.Summary
	// Reps is the number of replications aggregated.
	Reps int
}

// DefaultFaultPolicies is the study's policy axis: no recovery,
// graceful degradation, make-before-break handoff.
func DefaultFaultPolicies() []faults.Policy {
	return []faults.Policy{faults.PolicyNone, faults.PolicyDegrade, faults.PolicyHandoff}
}

// DefaultFaultOutageCounts is the study's outage-rate axis.
func DefaultFaultOutageCounts() []int { return []int{1, 3} }

// DefaultFaultDurations is the study's outage-duration axis. Both values
// sit well above the supervision detection floor (three failed voice
// polls, ~150ms) so every window is detected.
func DefaultFaultDurations() []time.Duration {
	return []time.Duration{400 * time.Millisecond, 800 * time.Millisecond}
}

// faultPoint is one (outage count, outage duration, policy) point of
// E11.
type faultPoint struct {
	outages int
	dur     time.Duration
	policy  faults.Policy
}

// policyName renders a recovery policy, "none" for the baseline.
func policyName(p faults.Policy) string {
	if p == "" {
		return "none"
	}
	return string(p)
}

// FaultStudy is experiment E11: what the self-healing machinery buys.
// Every cell injects the same deterministic link-outage schedule into the
// loaded piconet of the fault scenario and differs only in the recovery
// policy. With supervision alone (PolicyNone) failed links are detected
// and their flows suspended — guarantees die with the link, and the
// survival fraction drops with every injected outage. Graceful
// degradation renegotiates each suspended flow at a 4× looser bound once
// its declared window ends; handoff moves it make-before-break to the
// standby piconet at the original bound. Both recover the contracts the
// baseline loses, and neither may violate a retained bound: suspension
// flushes the queue before stale packets can be delivered late, and
// every recovery re-enters service through the admission test.
func FaultStudy(cfg Config, counts []int, durations []time.Duration, policies []faults.Policy) ([]FaultStudyRow, *stats.Table, error) {
	cfg = cfg.withDefaults()
	if len(counts) == 0 {
		counts = DefaultFaultOutageCounts()
	}
	if len(durations) == 0 {
		durations = DefaultFaultDurations()
	}
	if len(policies) == 0 {
		policies = DefaultFaultPolicies()
	}
	var points []faultPoint
	for _, n := range counts {
		for _, dur := range durations {
			for _, policy := range policies {
				points = append(points, faultPoint{n, dur, policy})
			}
		}
	}
	g := grid[faultPoint]{
		name: "fault-study",
		label: func(p faultPoint) string {
			return fmt.Sprintf("%dx%s/%s", p.outages, p.dur, policyName(p.policy))
		},
		build: func(p faultPoint) scenario.Spec {
			// The outage schedule is derived from the horizon, so the
			// sweep duration must flow into the builder (Grid.Run's
			// Duration override is then a no-op).
			return scenario.FaultScenario(scenario.FaultScenarioConfig{
				Outages:        p.outages,
				OutageDuration: p.dur,
				Policy:         p.policy,
				Duration:       cfg.Duration,
			})
		},
	}
	done, err := g.run(cfg, points)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: fault study: %w", err)
	}
	tbl := stats.NewTable(
		fmt.Sprintf("E11: fault injection and self-healing — guarantee survival under link outages (%v per run%s; supervision after 3 failed polls)",
			cfg.Duration, cfg.repNote()),
		"policy", "outages", "outage_dur", "gs_flows", "suspended", "degraded", "moved",
		"survival", "detect_latency", "retained_viol", "GS_kbps")
	var rows []FaultStudyRow
	for _, pt := range done {
		rs, p := pt.Runs, pt.P
		row := FaultStudyRow{
			Policy:         p.policy,
			Outages:        p.outages,
			OutageDuration: p.dur,
			GS:             classKbps(rs, piconet.Guaranteed),
			Reps:           len(rs),
		}
		var latencySum time.Duration
		for _, r := range rs {
			res := r.Result
			for _, f := range res.Flows {
				if f.Class != piconet.Guaranteed || f.Fate == scenario.FateMoved {
					continue
				}
				row.GSFlows++
				retained := f.Fate == "" || f.Fate == scenario.FateDegraded
				if retained && f.DelayMax > f.Bound {
					row.RetainedViolations++
				}
				if retained && f.DelayMax <= f.Bound {
					row.Survived++
				}
			}
			for _, a := range res.Admissions {
				if !a.Accepted {
					continue
				}
				switch a.Op {
				case scenario.OpSuspend:
					row.Suspended++
					latencySum += a.Latency
				case scenario.OpDegrade:
					row.Degraded++
				case scenario.OpHandoff:
					row.Moved++
				}
			}
		}
		if row.GSFlows > 0 {
			row.Survival = float64(row.Survived) / float64(row.GSFlows)
		}
		if row.Suspended > 0 {
			row.DetectionLatency = latencySum / time.Duration(row.Suspended)
		}
		rows = append(rows, row)
		tbl.AddRow(policyName(row.Policy), row.Outages, row.OutageDuration,
			row.GSFlows, row.Suspended, row.Degraded, row.Moved,
			fmt.Sprintf("%.3f", row.Survival),
			row.DetectionLatency.Round(time.Microsecond),
			row.RetainedViolations, kbpsCell(row.GS))
	}
	return rows, tbl, nil
}
