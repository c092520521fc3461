package experiments

import (
	"fmt"
	"time"

	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
	"bluegs/internal/stats"
)

// ScatternetAdmissionRow is one point of the interference-aware admission
// study: the same co-located scatternet workload with the admission test
// either trusting the ideal channel (baseline) or derating its service
// rates by the expected FH co-channel success probability.
type ScatternetAdmissionRow struct {
	// Piconets and BEKbps locate the workload cell.
	Piconets int
	BEKbps   float64
	// Derated tells which admission mode the row ran.
	Derated bool
	// GSFlows is the number of admitted GS flows across the scatternet
	// (first replication's layout; replications share it). Violations
	// counts admitted flows whose measured max delay exceeded their
	// exported bound, summed over replications.
	GSFlows    int
	Violations int
	// ViolationFraction is the mean fraction of admitted GS flows
	// violating their bound, across replications — ~0 when derated.
	ViolationFraction float64
	// Requests/Accepted/Rejected count the timeline's online add-gs
	// outcomes across replications; AcceptRatio = Accepted/Requests.
	// The derating cost shows here: the derated controller refuses
	// arrivals the baseline happily admits (and then violates).
	Requests, Accepted, Rejected int
	AcceptRatio                  float64
	// MeanDelayMax is the worst GS delay across flows, averaged over
	// replications.
	MeanDelayMax time.Duration
	// GS and BE are delivered-throughput summaries across replications.
	GS, BE stats.Summary
	// Reps is the number of replications aggregated.
	Reps int
}

// DefaultAdmissionCounts is the admission study's piconet-count axis.
func DefaultAdmissionCounts() []int { return []int{1, 2, 4, 8} }

// DefaultAdmissionLoads is the study's offered-load axis. One load keeps
// the default report tractable; pass more to sweep it.
func DefaultAdmissionLoads() []float64 { return []float64{60} }

// admissionOnlineGS is the number of extra online GS arrivals per piconet
// the timeline offers — the probes whose accept/reject split prices the
// derating.
const admissionOnlineGS = 2

// admissionPoint is one (workload, admission mode) point of E10.
type admissionPoint struct {
	scatternetPoint
	derated bool
}

// label renders the point as "Npn/Lkbps/mode".
func (p admissionPoint) label() string {
	return p.scatternetPoint.label() + "/" + admissionMode(p.derated)
}

// admissionMode names an E10 admission mode.
func admissionMode(derated bool) string {
	if derated {
		return "derated"
	}
	return "baseline"
}

// ScatternetAdmissionStudy is experiment E10: what interference-aware
// admission buys and costs. Each workload cell — N co-located piconets,
// the paper's voice-style GS flows plus a best-effort floor, and a stream
// of online GS arrivals — runs twice: once with the baseline admission
// test (which reasons over an ideal channel and, per E9, promises bounds
// the colliding scatternet cannot keep) and once with every controller
// derated by s = 1 − P(collision) from the FH co-channel estimate
// (radio.ExpectedCollisionProb). Derating inflates reservations by 1/s
// and funds a retransmission budget in the exported error terms, so the
// violation fraction drops to ~0 — paid for in the accept-ratio column,
// where the derated controller turns away the online arrivals the
// baseline admits and then fails.
func ScatternetAdmissionStudy(cfg Config, counts []int, loads []float64) ([]ScatternetAdmissionRow, *stats.Table, error) {
	cfg = cfg.withDefaults()
	if len(counts) == 0 {
		counts = DefaultAdmissionCounts()
	}
	if len(loads) == 0 {
		loads = DefaultAdmissionLoads()
	}
	var points []admissionPoint
	for _, w := range scatternetPoints(counts, loads) {
		points = append(points, admissionPoint{w, false}, admissionPoint{w, true})
	}
	g := grid[admissionPoint]{
		name:  "scatternet-admission",
		label: admissionPoint.label,
		build: func(p admissionPoint) scenario.Spec {
			return scenario.Scatternet(scenario.ScatternetConfig{
				Piconets:          p.count,
				BEKbps:            p.load,
				Duration:          cfg.Duration,
				OnlineGS:          admissionOnlineGS,
				InterferenceAware: p.derated,
			})
		},
	}
	done, err := g.run(cfg, points)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: scatternet admission: %w", err)
	}
	tbl := stats.NewTable(
		fmt.Sprintf("E10: interference-aware admission — violations bought back with refusals (%v per run%s; 1/79 FH collision model, ARQ on)",
			cfg.Duration, cfg.repNote()),
		"piconets", "be_kbps", "admission", "gs_flows", "violations", "viol_fraction",
		"requests", "accepted", "accept_ratio", "worst_gs_delay", "GS_kbps")
	var rows []ScatternetAdmissionRow
	for _, pt := range done {
		rs, p := pt.Runs, pt.P
		row := ScatternetAdmissionRow{
			Piconets:   p.count,
			BEKbps:     p.load,
			Derated:    p.derated,
			Violations: cellViolations(rs),
			GS:         classKbps(rs, piconet.Guaranteed),
			BE:         classKbps(rs, piconet.BestEffort),
			Reps:       len(rs),
		}
		fracSum, delaySum := 0.0, time.Duration(0)
		for _, r := range rs {
			res := r.Result
			fracSum += res.ViolationFraction()
			var worst time.Duration
			for _, f := range res.Flows {
				if f.Class != piconet.Guaranteed {
					continue
				}
				if f.DelayMax > worst {
					worst = f.DelayMax
				}
			}
			delaySum += worst
		}
		row.ViolationFraction = fracSum / float64(len(rs))
		row.MeanDelayMax = delaySum / time.Duration(len(rs))
		row.Requests, row.Accepted, row.Rejected, row.AcceptRatio = addGSTally(rs)
		for _, f := range rs[0].Result.Flows {
			if f.Class == piconet.Guaranteed {
				row.GSFlows++
			}
		}
		rows = append(rows, row)
		tbl.AddRow(row.Piconets, stats.FormatKbps(row.BEKbps), admissionMode(row.Derated),
			row.GSFlows, row.Violations, fmt.Sprintf("%.3f", row.ViolationFraction),
			row.Requests, row.Accepted, fmt.Sprintf("%.3f", row.AcceptRatio),
			row.MeanDelayMax.Round(time.Microsecond), kbpsCell(row.GS))
	}
	return rows, tbl, nil
}
