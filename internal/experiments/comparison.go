package experiments

import (
	"fmt"
	"math"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/core"
	"bluegs/internal/harness"
	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
	"bluegs/internal/sco"
	"bluegs/internal/stats"
)

// T4Row compares one scheme (SCO channel or GS/PFP at a delay target) for
// carrying a 64 kbps voice-like flow.
type T4Row struct {
	Scheme string
	// Bound is the scheme's delay bound; MaxSeen the measured maximum
	// over all replications (zero for the analytic SCO row).
	Bound   time.Duration
	MaxSeen time.Duration
	// BusySlots is the slot consumption per second while the source is
	// active; IdleSlots while the source is silent (means across
	// replications). SCO reserves its slots unconditionally; the GS
	// poller's consumption shrinks when idle and the difference is
	// reclaimable for BE or retransmissions.
	BusySlots float64
	IdleSlots float64
	// Reclaimable reports whether unused capacity can serve other
	// traffic.
	Reclaimable bool
}

// t4Point is one (target, phase) point of the T4 sweep: the voice
// source busy or silent.
type t4Point struct {
	target time.Duration
	busy   bool
}

// TableT4 reproduces the §5 SCO comparison: the GS/PFP poller approaches
// SCO delay bounds while its slots, unlike SCO's hard reservation, are
// reclaimable.
func TableT4(cfg Config) ([]T4Row, *stats.Table, error) {
	cfg = cfg.withDefaults()
	hv3, err := sco.NewChannel(baseband.TypeHV3)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: T4: %w", err)
	}
	rows := []T4Row{{
		Scheme:      hv3.String(),
		Bound:       hv3.DelayBound(),
		BusySlots:   hv3.ReservedSlotsPerSecond(),
		IdleSlots:   hv3.ReservedSlotsPerSecond(),
		Reclaimable: false,
	}}

	targets := []time.Duration{
		13 * time.Millisecond, 20 * time.Millisecond, 36 * time.Millisecond, 47 * time.Millisecond,
	}
	var points []t4Point
	for _, target := range targets {
		points = append(points, t4Point{target, true}, t4Point{target, false})
	}
	g := grid[t4Point]{
		name: "t4",
		label: func(p t4Point) string {
			if p.busy {
				return p.target.String() + "/busy"
			}
			return p.target.String() + "/idle"
		},
		build: func(p t4Point) scenario.Spec { return voiceSpec(cfg, p.target, p.busy) },
	}
	done, err := g.run(cfg, points)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: T4: %w", err)
	}

	gsSlotsPerSec := func(r *scenario.Result) float64 {
		return float64(r.Slots.GSData+r.Slots.GSOverhead) / r.Elapsed.Seconds()
	}
	// The points alternate busy and idle per target.
	for i := 0; i+1 < len(done); i += 2 {
		busy, idle := done[i].Runs, done[i+1].Runs
		f, _ := busy[0].Result.FlowByID(1)
		row := T4Row{
			Scheme:      fmt.Sprintf("GS/PFP target %v", done[i].P.target),
			Bound:       f.Bound,
			BusySlots:   harness.Aggregate(busy, gsSlotsPerSec).Mean,
			IdleSlots:   harness.Aggregate(idle, gsSlotsPerSec).Mean,
			Reclaimable: true,
		}
		for _, r := range busy {
			if rf, ok := r.Result.FlowByID(1); ok && rf.DelayMax > row.MaxSeen {
				row.MaxSeen = rf.DelayMax
			}
		}
		rows = append(rows, row)
	}

	tbl := stats.NewTable(
		fmt.Sprintf("T4: SCO vs GS/PFP for one 64 kbps voice flow (%v per run%s)",
			cfg.Duration, cfg.repNote()),
		"scheme", "bound", "max_seen", "slots/s busy", "slots/s idle", "reclaimable")
	for _, r := range rows {
		maxSeen := ""
		if r.MaxSeen > 0 {
			maxSeen = r.MaxSeen.Round(time.Microsecond).String()
		}
		tbl.AddRow(r.Scheme, r.Bound.Round(time.Microsecond), maxSeen,
			fmt.Sprintf("%.0f", r.BusySlots), fmt.Sprintf("%.0f", r.IdleSlots),
			r.Reclaimable)
	}
	return rows, tbl, nil
}

// voiceSpec is the single voice flow scenario, with or without traffic.
func voiceSpec(cfg Config, target time.Duration, withTraffic bool) scenario.Spec {
	g := scenario.GSFlow{
		ID: 1, Slave: 1, Dir: piconet.Up,
		Interval: 20 * time.Millisecond, MinSize: 144, MaxSize: 176,
	}
	spec := scenario.Spec{
		Name:        "voice-vs-sco",
		GS:          []scenario.GSFlow{g},
		DelayTarget: target,
	}
	if !withTraffic {
		spec.GS[0].Phase = cfg.Duration + time.Second // source never fires
	}
	return spec
}

// AblationRow reports one improvement-rule configuration (experiment A1).
// Slot and skip counts are means across replications, rounded.
type AblationRow struct {
	Label      string
	GSSlots    int64
	GSOverhead int64
	Skipped    uint64
	BEKbps     float64
	Violations int
}

// AblationImprovements quantifies the §3.2 design choices: GS slot
// consumption of the fixed-interval poller versus each improvement rule
// individually and combined, on the Fig. 4 scenario at a 46 ms target.
// Piggybacking is disabled so that flow 2 forms a master-to-slave-only
// stream: rule (c) only acts on such streams (§3.2: the master knows only
// its own queues), and in the paper scenario flow 2 is otherwise paired
// with uplink flow 3.
func AblationImprovements(cfg Config) ([]AblationRow, *stats.Table, error) {
	cfg = cfg.withDefaults()
	type config struct {
		label string
		mode  core.Mode
		rules core.Improvements
	}
	configs := []config{
		{"fixed (§3.1, no rules)", core.FixedInterval, 0},
		{"rule a (postpone after packet)", core.VariableInterval, core.PostponeAfterPacket},
		{"rule b (postpone after empty)", core.VariableInterval, core.PostponeAfterEmpty},
		{"rule c (skip empty down)", core.VariableInterval, core.SkipEmptyDown},
		{"rules a+b", core.VariableInterval, core.PostponeAfterPacket | core.PostponeAfterEmpty},
		{"all rules (§3.2)", core.VariableInterval, core.AllImprovements},
	}
	g := grid[config]{
		name:  "a1",
		label: func(c config) string { return c.label },
		build: func(c config) scenario.Spec {
			spec := scenario.Paper(46 * time.Millisecond)
			spec.Mode = c.mode
			spec.Rules = c.rules
			spec.RulesSet = c.mode == core.VariableInterval
			spec.WithoutPiggybacking = true
			return spec
		},
	}
	points, err := g.run(cfg, configs)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: ablation: %w", err)
	}
	tbl := stats.NewTable(
		fmt.Sprintf("A1: §3.2 improvement-rule ablation, Fig. 4 scenario at 46 ms, no piggybacking (%v per run%s)",
			cfg.Duration, cfg.repNote()),
		"configuration", "gs_slots", "gs_overhead", "skipped_polls", "be_kbps", "bound_ok")
	var rows []AblationRow
	for _, p := range points {
		rs := p.Runs
		gsSlots := harness.Aggregate(rs, func(r *scenario.Result) float64 {
			return float64(r.Slots.GSData + r.Slots.GSOverhead)
		})
		overhead := harness.Aggregate(rs, func(r *scenario.Result) float64 {
			return float64(r.Slots.GSOverhead)
		})
		skipped := harness.Aggregate(rs, func(r *scenario.Result) float64 {
			return float64(r.Skipped)
		})
		row := AblationRow{
			Label:      p.Cell,
			GSSlots:    int64(math.Round(gsSlots.Mean)),
			GSOverhead: int64(math.Round(overhead.Mean)),
			Skipped:    uint64(math.Round(skipped.Mean)),
			BEKbps:     classKbps(rs, piconet.BestEffort).Mean,
			Violations: cellViolations(rs),
		}
		rows = append(rows, row)
		ok := "yes"
		if row.Violations > 0 {
			ok = "VIOLATED"
		}
		tbl.AddRow(row.Label, row.GSSlots, row.GSOverhead, row.Skipped,
			stats.FormatKbps(row.BEKbps), ok)
	}
	return rows, tbl, nil
}

// BaselineRow reports one best-effort poller on the baseline comparison
// (experiment A2), aggregated over replications: throughput, mean delay
// and fairness are means; p99 and max delay take the worst replication.
type BaselineRow struct {
	Poller    string
	TotalKbps float64
	MeanDelay time.Duration
	P99Delay  time.Duration
	MaxDelay  time.Duration
	// Fairness is Jain's index over the loaded slaves'
	// achieved/offered ratios.
	Fairness float64
	// Reps is the number of replications aggregated into the row;
	// Metric, Converged and CacheHits are set in adaptive mode (see
	// Fig5Row).
	Reps      int
	Metric    stats.Summary
	Converged bool
	CacheHits int
}

// BaselinePollers compares the related-work pollers on a saturated
// best-effort piconet with idle slaves present (experiment A2): none of
// them bounds delay, which motivates the paper's GS mechanism. With
// Config.CITarget set each poller replicates adaptively (default metric:
// total BE throughput) and the table gains "reps" and "ci_half" columns.
func BaselinePollers(cfg Config) ([]BaselineRow, *stats.Table, error) {
	cfg = cfg.withDefaults()
	kinds := []scenario.BEPollerKind{
		scenario.BERoundRobin, scenario.BEExhaustive, scenario.BEFEP,
		scenario.BEEDC, scenario.BEDemand, scenario.BEHOL, scenario.BEPFP,
	}
	points, err := baselineGrid.run(cfg, kinds)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: baseline: %w", err)
	}
	columns := []string{"poller", "total_kbps", "delay_mean", "delay_p99", "delay_max", "fairness"}
	if cfg.adaptive() {
		columns = append(columns, "reps", "ci_half")
	}
	tbl := stats.NewTable(
		fmt.Sprintf("A2: best-effort pollers on a saturated piconet (%v per run%s)",
			cfg.Duration, cfg.repNote()),
		columns...)
	var rows []BaselineRow
	for _, p := range points {
		rs := p.Runs
		var kbps, mean, fairness stats.Welford
		row := BaselineRow{Poller: p.Cell, Reps: len(rs)}
		for _, r := range rs {
			rep := summarizeBaseline(p.Cell, r.Run.Spec, r.Result)
			kbps.Add(rep.TotalKbps)
			mean.Add(float64(rep.MeanDelay))
			fairness.Add(rep.Fairness)
			if rep.MaxDelay > row.MaxDelay {
				row.MaxDelay = rep.MaxDelay
			}
			if rep.P99Delay > row.P99Delay {
				row.P99Delay = rep.P99Delay
			}
		}
		row.TotalKbps = kbps.Mean()
		row.MeanDelay = time.Duration(mean.Mean())
		row.Fairness = fairness.Mean()
		cells := []any{row.Poller, stats.FormatKbps(row.TotalKbps),
			row.MeanDelay.Round(time.Microsecond), row.P99Delay.Round(time.Microsecond),
			row.MaxDelay.Round(time.Microsecond), fmt.Sprintf("%.3f", row.Fairness)}
		if o := p.Outcome; o != nil {
			row.Metric = o.Metric
			row.Converged = o.Converged
			row.CacheHits = o.CacheHits
			cells = append(cells, convergedReps(*o), fmt.Sprintf("%.3g", o.Metric.CI95))
		}
		rows = append(rows, row)
		tbl.AddRow(cells...)
	}
	return rows, tbl, nil
}

// baselineGrid is the A2 grid: the saturated baseline piconet under
// each best-effort poller.
var baselineGrid = grid[scenario.BEPollerKind]{
	name:  "comparison",
	label: func(k scenario.BEPollerKind) string { return string(k) },
	build: scenario.Baseline,
	ci:    harness.BEThroughput,
}

func summarizeBaseline(name string, spec scenario.Spec, res *scenario.Result) BaselineRow {
	row := BaselineRow{Poller: name, TotalKbps: res.TotalKbps(piconet.BestEffort)}
	var ratios []float64
	var meanSum float64
	var meanN int
	for _, b := range spec.BE {
		f, _ := res.FlowByID(b.ID)
		if b.RateKbps >= 1 { // loaded flows only
			ratios = append(ratios, f.Kbps/b.RateKbps)
		}
		if f.Delivered > 0 {
			meanSum += float64(f.DelayMean) * float64(f.Delivered)
			meanN += int(f.Delivered)
			if f.DelayMax > row.MaxDelay {
				row.MaxDelay = f.DelayMax
			}
			if f.DelayP99 > row.P99Delay {
				row.P99Delay = f.DelayP99
			}
		}
	}
	if meanN > 0 {
		row.MeanDelay = time.Duration(meanSum / float64(meanN))
	}
	row.Fairness = stats.Fairness(ratios)
	return row
}
