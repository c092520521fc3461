package experiments

import (
	"fmt"
	"strconv"
	"time"

	"bluegs/internal/admission"
	"bluegs/internal/harness"
	"bluegs/internal/scenario"
	"bluegs/internal/stats"
)

// BridgeRow is one point of the bridge study: a Hops-piconet route at one
// residency duty cycle and background load, admitted either with the
// residency-derated budget split or the naive baseline (full end-to-end
// budget per hop, no derate).
type BridgeRow struct {
	// Hops, Duty and GSLoad locate the workload cell.
	Hops   int
	Duty   float64
	GSLoad int
	// Naive tells which admission mode the row ran.
	Naive bool
	// Target is the end-to-end delay budget the route asked for.
	Target time.Duration
	// Delivered and Lost sum the route's packets across replications.
	Delivered, Lost uint64
	// DelayP99 and DelayMax take the worst replication's end-to-end
	// delay quantiles.
	DelayP99, DelayMax time.Duration
	// Violations counts replications whose measured end-to-end max
	// exceeded the target (must stay zero when derated).
	Violations int
	// BudgetUtilization is the mean over hops of admitted bound over
	// per-hop budget (first replication; the layout is shared). Derated
	// hops may exceed 1 — static routes clamp to the tightest
	// achievable bound when the derated share is unreachable — while
	// the naive baseline sits comfortably below 1 and violates anyway:
	// its per-hop ledger never sees the residency outage.
	BudgetUtilization float64
	// PeakQueue is the worst store-and-forward backlog at any bridge
	// across replications.
	PeakQueue int
	// Kbps is the route's delivered-throughput summary.
	Kbps stats.Summary
	// Reps is the number of replications aggregated.
	Reps int
}

// DefaultBridgeHops is the study's hop-count axis.
func DefaultBridgeHops() []int { return []int{1, 2, 3} }

// DefaultBridgeDuties is the forwarding duty-cycle axis.
func DefaultBridgeDuties() []float64 { return []float64{0.3, 0.5, 0.7} }

// DefaultBridgeLoads is the background-load axis (GS flows per piconet).
// One load keeps the default report tractable; pass more to sweep it.
func DefaultBridgeLoads() []int { return []int{1} }

// bridgePoint is one (hops, duty, load, mode) point of E12.
type bridgePoint struct {
	hops  int
	duty  float64
	load  int
	naive bool
}

// bridgeMode names an E12 admission mode.
func bridgeMode(naive bool) string {
	if naive {
		return "naive"
	}
	return "derated"
}

// BridgeStudy is experiment E12: what end-to-end delay guarantees cost
// across bridges. Each cell runs the Bridged workload — Hops piconets
// chained by time-division bridge slaves, one end-to-end route under a
// 55 ms-per-hop budget, a background voice floor — twice: once with the
// route admitted hop by hop from an equal budget split with each hop's
// reservation derated by the bridge's residency duty cycle (composed with
// the FH collision term), and once with the naive baseline that grants
// every hop the full end-to-end budget and ignores residency. Packets
// queue at a bridge while it is resident elsewhere; the derated
// reservation polls often enough to drain that backlog inside the budget,
// the naive one does not — its max delay crosses the target even though
// every per-hop ledger looks healthy.
//
// One-hop cells degenerate to a flat GS flow (no bridge, no derate) and
// run only in derated mode; they anchor the routed path against the
// single-piconet results.
func BridgeStudy(cfg Config, hops []int, duties []float64, loads []int) ([]BridgeRow, *stats.Table, error) {
	cfg = cfg.withDefaults()
	if len(hops) == 0 {
		hops = DefaultBridgeHops()
	}
	if len(duties) == 0 {
		duties = DefaultBridgeDuties()
	}
	if len(loads) == 0 {
		loads = DefaultBridgeLoads()
	}
	var points []bridgePoint
	for _, load := range loads {
		for _, h := range hops {
			if h <= 1 {
				// No bridge: duty and derating are moot.
				points = append(points, bridgePoint{hops: 1, duty: duties[0], load: load})
				continue
			}
			for _, duty := range duties {
				points = append(points, bridgePoint{h, duty, load, false}, bridgePoint{h, duty, load, true})
			}
		}
	}
	g := grid[bridgePoint]{
		name: "bridge",
		label: func(p bridgePoint) string {
			return fmt.Sprintf("%dhop/d%s/%dgs/%s", p.hops, dutyCell(p.duty), p.load, bridgeMode(p.naive))
		},
		build: func(p bridgePoint) scenario.Spec {
			return scenario.Bridged(scenario.BridgedConfig{
				Hops:         p.hops,
				Duty:         p.duty,
				GSPerPiconet: p.load,
				Duration:     cfg.Duration,
				Naive:        p.naive,
			})
		},
	}
	done, err := g.run(cfg, points)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: bridge study: %w", err)
	}
	tbl := stats.NewTable(
		fmt.Sprintf("E12: bridged routes — residency-derated budget split vs naive per-hop admission (%v per run%s)",
			cfg.Duration, cfg.repNote()),
		"hops", "duty", "gs_load", "admission", "target", "delivered",
		"e2e_p99", "e2e_max", "e2e_ok", "budget_util", "peak_queue", "route_kbps")
	var rows []BridgeRow
	for _, pt := range done {
		rs, p := pt.Runs, pt.P
		row := BridgeRow{
			Hops:   p.hops,
			Duty:   p.duty,
			GSLoad: p.load,
			Naive:  p.naive,
			Reps:   len(rs),
		}
		row.Kbps = harness.Aggregate(rs, func(r *scenario.Result) float64 {
			if len(r.Routes) == 0 {
				return 0
			}
			return r.Routes[0].Kbps
		})
		for _, r := range rs {
			for _, rr := range r.Result.Routes {
				row.Target = rr.Target
				row.Delivered += rr.Delivered
				row.Lost += rr.Lost
				if rr.DelayP99 > row.DelayP99 {
					row.DelayP99 = rr.DelayP99
				}
				if rr.DelayMax > row.DelayMax {
					row.DelayMax = rr.DelayMax
				}
				if rr.Violated() {
					row.Violations++
				}
				if rr.PeakQueue > row.PeakQueue {
					row.PeakQueue = rr.PeakQueue
				}
			}
		}
		if first := rs[0].Result.Routes; len(first) > 0 {
			row.BudgetUtilization = budgetUtilization(first[0], p.naive)
		}
		rows = append(rows, row)
		ok := "yes"
		if row.Violations > 0 {
			ok = fmt.Sprintf("VIOLATED×%d", row.Violations)
		}
		tbl.AddRow(row.Hops, dutyCell(row.Duty), row.GSLoad, bridgeMode(row.Naive),
			row.Target, row.Delivered,
			row.DelayP99.Round(time.Microsecond), row.DelayMax.Round(time.Microsecond),
			ok, fmt.Sprintf("%.2f", row.BudgetUtilization), row.PeakQueue, kbpsCell(row.Kbps))
	}
	return rows, tbl, nil
}

// budgetUtilization averages each hop's admitted bound over its share of
// the end-to-end budget: an equal split for the derated mode (mirroring
// admission.SplitBudget), the full budget per hop for the naive baseline.
func budgetUtilization(rr scenario.RouteResult, naive bool) float64 {
	if len(rr.HopBounds) == 0 || rr.Target <= 0 {
		return 0
	}
	budgets := []time.Duration{rr.Target}
	if !naive {
		budgets = admission.SplitBudget(rr.Target, len(rr.HopBounds))
	}
	sum := 0.0
	for i, b := range rr.HopBounds {
		budget := budgets[0]
		if i < len(budgets) {
			budget = budgets[i]
		}
		sum += float64(b) / float64(budget)
	}
	return sum / float64(len(rr.HopBounds))
}

// dutyCell renders a duty cycle losslessly, so two duties that agree to a
// few decimals stay two points (labels) and two rows (the duty column).
func dutyCell(d float64) string { return strconv.FormatFloat(d, 'g', -1, 64) }
