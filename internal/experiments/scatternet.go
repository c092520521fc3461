package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
	"bluegs/internal/stats"
)

// ScatternetRow is one point of the scatternet study: the paper's
// per-piconet delay guarantees under N co-located piconets at one
// best-effort load, aggregated over replications.
type ScatternetRow struct {
	// Piconets and BEKbps locate the cell: piconet count × per-direction
	// best-effort load per piconet.
	Piconets int
	BEKbps   float64
	// GSFlows is the number of GS flows across the scatternet;
	// Violations how many of them (summed over replications) exceeded
	// their exported bound.
	GSFlows    int
	Violations int
	// ViolationFraction is the mean scatternet-wide fraction of GS flows
	// violating their bound, across replications — the study's headline:
	// 0 at one piconet (the paper's guarantee), growing with the count.
	ViolationFraction float64
	// PerPiconet renders per-piconet bound compliance: one
	// "ok-flows/gs-flows" entry per piconet (flows count as ok when they
	// met the bound in every replication).
	PerPiconet []string
	// MeanDelayMax is the worst GS delay across flows, averaged over
	// replications.
	MeanDelayMax time.Duration
	// Utilization is the mean per-piconet channel occupancy.
	Utilization float64
	// GS and BE are delivered-throughput summaries across replications.
	GS, BE stats.Summary
	// Reps is the number of replications aggregated.
	Reps int
}

// DefaultScatternetCounts is the study's piconet-count axis.
func DefaultScatternetCounts() []int { return []int{1, 2, 4, 6, 8} }

// DefaultScatternetLoads is the study's offered-load axis: the
// per-direction best-effort floor of every piconet, in kbps.
func DefaultScatternetLoads() []float64 { return []float64{30, 60} }

// scatternetPoint is one (piconet count, per-piconet BE load) point of
// E9 and of E10's workload.
type scatternetPoint struct {
	count int
	load  float64
}

// scatternetPoints crosses the load and count axes, load-major.
func scatternetPoints(counts []int, loads []float64) []scatternetPoint {
	var points []scatternetPoint
	for _, load := range loads {
		for _, count := range counts {
			points = append(points, scatternetPoint{count, load})
		}
	}
	return points
}

// label renders the point as "Npn/Lkbps".
func (p scatternetPoint) label() string {
	return fmt.Sprintf("%dpn/%skbps", p.count, strconv.FormatFloat(p.load, 'g', -1, 64))
}

// ScatternetStudy is experiment E9: how the paper's per-piconet delay
// bounds erode as co-located piconets multiply. Each cell runs N
// identical piconets — the paper's voice-style GS flows plus a
// best-effort floor, ARQ on — coupled through the 1/79 FH co-channel
// collision model, over one shared kernel clock. With one piconet the
// admission test's promise holds exactly; every added piconet raises the
// per-packet collision probability, retransmissions eat the slack the
// x_i fixed point reasoned with, and the violation fraction climbs.
func ScatternetStudy(cfg Config, counts []int, loads []float64) ([]ScatternetRow, *stats.Table, error) {
	cfg = cfg.withDefaults()
	if len(counts) == 0 {
		counts = DefaultScatternetCounts()
	}
	if len(loads) == 0 {
		loads = DefaultScatternetLoads()
	}
	g := grid[scatternetPoint]{
		name:  "scatternet",
		label: scatternetPoint.label,
		build: func(p scatternetPoint) scenario.Spec {
			return scenario.Scatternet(scenario.ScatternetConfig{
				Piconets: p.count,
				BEKbps:   p.load,
				Duration: cfg.Duration,
			})
		},
	}
	points, err := g.run(cfg, scatternetPoints(counts, loads))
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: scatternet: %w", err)
	}
	tbl := stats.NewTable(
		fmt.Sprintf("E9: delay-bound erosion across co-located piconets (%v per run%s; 1/79 FH collision model, ARQ on)",
			cfg.Duration, cfg.repNote()),
		"piconets", "be_kbps", "GS_kbps", "BE_kbps", "violations", "viol_fraction",
		"worst_gs_delay", "mean_util", "per_piconet_ok")
	var rows []ScatternetRow
	for _, pt := range points {
		rs, p := pt.Runs, pt.P
		row := ScatternetRow{
			Piconets: p.count,
			BEKbps:   p.load,
			GS:       classKbps(rs, piconet.Guaranteed),
			BE:       classKbps(rs, piconet.BestEffort),
			Reps:     len(rs),
		}
		// Per-(piconet, flow) compliance across replications.
		type flowKey struct {
			pn   string
			flow piconet.FlowID
		}
		violated := make(map[flowKey]bool)
		fracSum, delaySum, utilSum := 0.0, time.Duration(0), 0.0
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
				if f.DelayMax > f.Bound {
					violated[flowKey{f.Piconet, f.ID}] = true
				}
			}
			delaySum += worst
			for _, pr := range res.Piconets {
				utilSum += pr.Utilization
			}
		}
		row.Violations = cellViolations(rs)
		row.ViolationFraction = fracSum / float64(len(rs))
		row.MeanDelayMax = delaySum / time.Duration(len(rs))
		row.Utilization = utilSum / float64(len(rs)*p.count)
		// Per-piconet compliance from the first replication's layout
		// (all replications share it), marking a flow ok only when it
		// met its bound in every replication.
		for _, pr := range rs[0].Result.Piconets {
			gs, ok := 0, 0
			for _, f := range pr.Flows {
				if f.Class != piconet.Guaranteed {
					continue
				}
				gs++
				if !violated[flowKey{pr.Name, f.ID}] {
					ok++
				}
			}
			row.PerPiconet = append(row.PerPiconet, fmt.Sprintf("%d/%d", ok, gs))
			row.GSFlows += gs
		}
		rows = append(rows, row)
		tbl.AddRow(row.Piconets, stats.FormatKbps(row.BEKbps),
			kbpsCell(row.GS), kbpsCell(row.BE),
			row.Violations, fmt.Sprintf("%.3f", row.ViolationFraction),
			row.MeanDelayMax.Round(time.Microsecond),
			fmt.Sprintf("%.3f", row.Utilization),
			strings.Join(row.PerPiconet, " "))
	}
	return rows, tbl, nil
}
