package experiments

import (
	"fmt"
	"time"

	"bluegs/internal/harness"
	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
	"bluegs/internal/stats"
)

// ChurnRow is one point of the churn study: the online admission
// statistics and delay-bound compliance at one GS arrival rate.
type ChurnRow struct {
	// MeanArrival is the mean GS inter-arrival time of the cell.
	MeanArrival time.Duration
	// Requests/Accepted/Rejected count the timeline's add-gs outcomes,
	// summed across replications (the request sequence is spec data, so
	// every replication sees the same sequence; acceptance is a pure
	// function of the admission state and is identical too).
	Requests, Accepted, Rejected int
	// AcceptRatio is Accepted/Requests.
	AcceptRatio float64
	// Violations counts admitted GS flows whose measured max delay
	// exceeded their exported bound, across all replications (must be
	// zero: the paper's guarantee extends to flows admitted online).
	Violations int
	// GS and BE are delivered-throughput summaries across replications.
	GS, BE stats.Summary
	// Reps is the number of replications aggregated.
	Reps int
}

// DefaultChurnArrivals is the churn study's x-axis: mean GS inter-arrival
// times from heavy to light churn.
func DefaultChurnArrivals() []time.Duration {
	return []time.Duration{2 * time.Second, 4 * time.Second, 8 * time.Second}
}

// ChurnStudy evaluates the online admission protocol under flow churn
// (experiment E8): Poisson GS arrivals with exponential holding times
// over a best-effort floor, swept over the arrival rate. Each request
// passes the paper's Fig. 3 admission test against whatever is installed
// at that moment; the row reports the accept ratio and verifies that
// every admitted flow's measured delay respected the bound exported at
// admission.
func ChurnStudy(cfg Config, arrivals []time.Duration) ([]ChurnRow, *stats.Table, error) {
	cfg = cfg.withDefaults()
	if len(arrivals) == 0 {
		arrivals = DefaultChurnArrivals()
	}
	g := grid[time.Duration]{
		name:  "churn",
		label: time.Duration.String,
		build: func(a time.Duration) scenario.Spec {
			return scenario.Churn(scenario.ChurnConfig{MeanArrival: a, Duration: cfg.Duration})
		},
	}
	points, err := g.run(cfg, arrivals)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: churn: %w", err)
	}
	tbl := stats.NewTable(
		fmt.Sprintf("E8: online admission under GS flow churn (%v per run%s)",
			cfg.Duration, cfg.repNote()),
		"mean_arrival", "requests", "accepted", "rejected", "accept_ratio",
		"violations", "GS_kbps", "BE_kbps")
	var rows []ChurnRow
	for _, p := range points {
		rs := p.Runs
		row := ChurnRow{
			MeanArrival: p.P,
			GS:          classKbps(rs, piconet.Guaranteed),
			BE:          classKbps(rs, piconet.BestEffort),
			Reps:        len(rs),
			Violations:  cellViolations(rs),
		}
		row.Requests, row.Accepted, row.Rejected, row.AcceptRatio = addGSTally(rs)
		rows = append(rows, row)
		tbl.AddRow(row.MeanArrival, row.Requests, row.Accepted, row.Rejected,
			fmt.Sprintf("%.3f", row.AcceptRatio), row.Violations,
			kbpsCell(row.GS), kbpsCell(row.BE))
	}
	return rows, tbl, nil
}

// ChurnPollerRow is one poller's showing under the churn workload.
type ChurnPollerRow struct {
	Poller scenario.BEPollerKind
	// Requests/Accepted/Rejected count the add-gs outcomes across
	// replications. The arrival sequence is fixed spec data, but the
	// admission state each request meets depends on what was installed
	// before it — identical across pollers (admission ignores BE) yet
	// reported per row as a sanity anchor.
	Requests, Accepted, Rejected int
	AcceptRatio                  float64
	// Violations counts admitted GS flows whose measured max delay
	// exceeded their exported bound (must stay zero: the paper's
	// guarantee may not depend on which best-effort poller competes).
	Violations int
	// GS and BE are delivered-throughput summaries; BE is where the
	// pollers differ — how much leftover capacity each discipline
	// salvages while the GS set churns under it.
	GS, BE stats.Summary
	Reps   int
}

// ChurnPollers is experiment E8b (the ROADMAP's "does PFP's prediction
// survive flow churn?"): the churn workload re-run under every
// best-effort poller. The paper's admission guarantee must hold
// regardless of the competing discipline — the violations column stays
// zero — while the BE throughput column ranks how each poller's internal
// state (PFP's activity predictions, EDC's deficit counters, …) copes
// with GS flows arriving and leaving under it.
func ChurnPollers(cfg Config, kinds []scenario.BEPollerKind) ([]ChurnPollerRow, *stats.Table, error) {
	cfg = cfg.withDefaults()
	if len(kinds) == 0 {
		kinds = scenario.AllBEPollers
	}
	g := grid[scenario.BEPollerKind]{
		name:  "churn-pollers",
		label: func(k scenario.BEPollerKind) string { return string(k) },
		build: func(k scenario.BEPollerKind) scenario.Spec {
			return scenario.Churn(scenario.ChurnConfig{Duration: cfg.Duration, Poller: k})
		},
	}
	points, err := g.run(cfg, kinds)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: churn pollers: %w", err)
	}
	tbl := stats.NewTable(
		fmt.Sprintf("E8b: churn workload by best-effort poller (%v per run%s)",
			cfg.Duration, cfg.repNote()),
		"poller", "requests", "accepted", "accept_ratio", "violations",
		"GS_kbps", "BE_kbps")
	var rows []ChurnPollerRow
	for _, p := range points {
		rs := p.Runs
		row := ChurnPollerRow{
			Poller:     p.P,
			GS:         classKbps(rs, piconet.Guaranteed),
			BE:         classKbps(rs, piconet.BestEffort),
			Reps:       len(rs),
			Violations: cellViolations(rs),
		}
		row.Requests, row.Accepted, row.Rejected, row.AcceptRatio = addGSTally(rs)
		rows = append(rows, row)
		tbl.AddRow(string(row.Poller), row.Requests, row.Accepted,
			fmt.Sprintf("%.3f", row.AcceptRatio), row.Violations,
			kbpsCell(row.GS), kbpsCell(row.BE))
	}
	return rows, tbl, nil
}

// addGSTally counts the online add-gs admission outcomes across a cell's
// replications, with the accept ratio (0 without requests).
func addGSTally(rs []harness.RunResult) (requests, accepted, rejected int, ratio float64) {
	for _, r := range rs {
		for _, a := range r.Result.Admissions {
			if a.Op != scenario.OpAddGS {
				continue
			}
			requests++
			if a.Accepted {
				accepted++
			} else {
				rejected++
			}
		}
	}
	if requests > 0 {
		ratio = float64(accepted) / float64(requests)
	}
	return requests, accepted, rejected, ratio
}
