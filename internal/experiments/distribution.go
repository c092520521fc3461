package experiments

import (
	"fmt"
	"time"

	"bluegs/internal/piconet"
	"bluegs/internal/stats"
)

// E7Row summarises the delay distribution of one GS flow. With
// replications the distributions pool every replication's samples.
type E7Row struct {
	Flow       piconet.FlowID
	Samples    uint64
	P50        time.Duration
	P90        time.Duration
	P99        time.Duration
	P999       time.Duration
	Max        time.Duration
	Bound      time.Duration
	CDFAtBound float64
}

// DelayDistribution characterises the full per-flow delay distributions of
// the Fig. 4 scenario at one delay requirement (an extension: the paper
// reports only that the bound is never exceeded; the distribution shows
// how much headroom the worst case leaves). It also returns per-flow
// histograms for rendering.
func DelayDistribution(cfg Config, target time.Duration) ([]E7Row, *stats.Table, map[piconet.FlowID]*stats.DurationHistogram, error) {
	cfg = cfg.withDefaults()
	if target <= 0 {
		target = 38 * time.Millisecond
	}
	points, err := paperGrid.run(cfg, []time.Duration{target})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("experiments: E7: %w", err)
	}
	results := points[0].Runs
	tbl := stats.NewTable(
		fmt.Sprintf("E7: GS delay distributions at a %v requirement (%v%s)",
			target, cfg.Duration, cfg.repNote()),
		"flow", "samples", "p50", "p90", "p99", "p99.9", "max", "bound", "cdf_at_bound")
	var rows []E7Row
	hists := make(map[piconet.FlowID]*stats.DurationHistogram)
	for _, f := range results[0].Result.Flows {
		if f.Class != piconet.Guaranteed || f.Delay == nil {
			continue
		}
		// Pool the delay samples of every replication of this flow.
		pooled := &stats.DurationStats{}
		for _, r := range results {
			if rf, ok := r.Result.FlowByID(f.ID); ok && rf.Delay != nil {
				pooled.Merge(rf.Delay)
			}
		}
		h := stats.NewDurationHistogram(f.Bound+f.Bound/4, 25)
		pooled.FillHistogram(h)
		hists[f.ID] = h
		row := E7Row{
			Flow:       f.ID,
			Samples:    pooled.Count(),
			P50:        pooled.Quantile(0.5),
			P90:        pooled.Quantile(0.9),
			P99:        pooled.Quantile(0.99),
			P999:       pooled.Quantile(0.999),
			Max:        pooled.Max(),
			Bound:      f.Bound,
			CDFAtBound: h.CumulativeAt(f.Bound),
		}
		rows = append(rows, row)
		tbl.AddRow(f.ID, row.Samples,
			row.P50.Round(time.Microsecond), row.P90.Round(time.Microsecond),
			row.P99.Round(time.Microsecond), row.P999.Round(time.Microsecond),
			row.Max.Round(time.Microsecond), row.Bound.Round(time.Microsecond),
			fmt.Sprintf("%.4f", row.CDFAtBound))
	}
	return rows, tbl, hists, nil
}
