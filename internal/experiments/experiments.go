// Package experiments regenerates every table and figure of the paper's
// evaluation (see internal/README.md for the experiment index). Each
// experiment returns structured rows plus a rendered table; the cmd tools,
// the top-level benchmarks and the tests all share these entry points.
//
// Every experiment executes its runs through internal/harness: the grid of
// (sweep cell × seed replication) fans out across a bounded worker pool,
// and per-cell replications aggregate into mean/min/max/95%-confidence
// summaries. With the default single replication each experiment
// reproduces the historical serial output bit for bit (the golden-table
// tests enforce this).
package experiments

import (
	"errors"
	"fmt"
	"time"

	"bluegs/internal/admission"
	"bluegs/internal/baseband"
	"bluegs/internal/gs"
	"bluegs/internal/harness"
	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
	"bluegs/internal/stats"
	"bluegs/internal/tspec"
)

// Config tunes experiment runs. The zero value uses a 60 s horizon, seed 1
// and a single replication; the paper's full runs use 530 s (cmd tools
// pass that).
type Config struct {
	// Duration is the simulated time per run.
	Duration time.Duration
	// Seed drives all randomness. With replications, each replication's
	// seed is derived from (Seed, rep) — see harness.ReplicationSeed.
	Seed int64
	// Replications is the number of independently seeded runs per sweep
	// cell (default 1, the paper's single-run evaluation). With more
	// than one, rows aggregate across replications and throughput cells
	// gain 95% confidence intervals.
	Replications int
	// Workers bounds the harness worker pool (default GOMAXPROCS).
	// Results are bit-identical at any worker count.
	Workers int
	// KernelWorkers, when non-zero, bounds the worker goroutines of the
	// sharded event kernel inside every simulation
	// (scenario.Spec.KernelWorkers). Like Workers it is a pure execution
	// knob: tables, fingerprints and cache keys are bit-identical at any
	// value.
	KernelWorkers int
	// Progress, when set, receives (completed, total) run counts while
	// a sweep executes.
	Progress func(done, total int)
	// CITarget, when positive, switches the experiments that support it
	// (Figure5, BaselinePollers) to adaptive replication: each sweep
	// cell keeps receiving further independently seeded replications
	// until the 95% CI half-width of the stopping metric drops below
	// CITarget×|mean|, overriding Replications. Results stay
	// bit-identical at any worker count.
	CITarget float64
	// CIMetric names the stopping metric (see harness.MetricByName;
	// empty uses the experiment's natural metric: GS delay for Figure5,
	// BE throughput for BaselinePollers).
	CIMetric string
	// MaxReps caps adaptive replications per cell (default 32).
	MaxReps int
	// Cache, when set, replays runs whose content fingerprint it already
	// holds instead of executing the simulator — across experiments too,
	// since Figure5, T2 and T3 share grid cells.
	Cache *harness.RunCache
	// Executor, when set, routes every sweep through it instead of the
	// in-process harness (harness.Local{}). This is how `fig5 -addr` runs
	// the same experiment code distributed: a fabric.Coordinator is an
	// Executor, and because both implementations share the harness
	// determinism contract, the rendered tables are byte-identical. Each
	// experiment issues one Execute per table through it (one
	// ExecuteAdaptive for Figure5 and BaselinePollers under CITarget).
	Executor harness.Executor
	// Interrupt, when set and closed, abandons undispatched runs
	// (harness.Options.Interrupt): experiments return partial results
	// wrapping harness.ErrInterrupted, and Figure5 still renders the
	// completed cells — the cmd tools' graceful-SIGINT path.
	Interrupt <-chan struct{}
}

func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Replications <= 0 {
		c.Replications = 1
	}
	return c
}

// sweep converts the experiment configuration for the harness builders.
func (c Config) sweep() harness.SweepConfig {
	return harness.SweepConfig{
		Duration:     c.Duration,
		Seed:         c.Seed,
		Replications: c.Replications,
	}
}

// options converts the execution half of the configuration.
func (c Config) options() harness.Options {
	opts := harness.Options{
		Workers:       c.Workers,
		KernelWorkers: c.KernelWorkers,
		Cache:         c.Cache,
		Interrupt:     c.Interrupt,
	}
	if c.Progress != nil {
		p := c.Progress
		opts.OnProgress = func(done, total int, _ harness.RunResult) { p(done, total) }
	}
	return opts
}

// executor resolves the sweep executor (in-process by default).
func (c Config) executor() harness.Executor {
	if c.Executor != nil {
		return c.Executor
	}
	return harness.Local{}
}

// adaptive reports whether confidence-driven replication is requested.
func (c Config) adaptive() bool { return c.CITarget > 0 }

// adaptiveOptions assembles the harness stopping rule, resolving the
// metric name against the experiment's natural default.
func (c Config) adaptiveOptions(def harness.Metric) (harness.AdaptiveOptions, error) {
	metric := def
	if c.CIMetric != "" {
		m, err := harness.MetricByName(c.CIMetric)
		if err != nil {
			return harness.AdaptiveOptions{}, err
		}
		metric = m
	}
	return harness.AdaptiveOptions{
		Options: c.options(),
		Metric:  metric,
		RelTol:  c.CITarget,
		MaxReps: c.MaxReps,
	}, nil
}

// repNote annotates table titles when an experiment replicates.
func (c Config) repNote() string {
	if c.adaptive() {
		cap := c.MaxReps
		if cap <= 0 {
			cap = harness.DefaultMaxReps
		}
		return fmt.Sprintf(", adaptive reps ≤%d to CI≤%.3g·mean", cap, c.CITarget)
	}
	if c.Replications <= 1 {
		return ""
	}
	return fmt.Sprintf(", %d reps, mean±95%% CI", c.Replications)
}

// kbpsCell renders a throughput summary: the bare mean for single-run
// sweeps (preserving the historical table text), mean±CI with
// replication.
func kbpsCell(s stats.Summary) string {
	if s.N <= 1 {
		return stats.FormatKbps(s.Mean)
	}
	return s.FormatMeanCI()
}

// slaveKbps aggregates one slave's delivered throughput across a cell's
// replications.
func slaveKbps(rs []harness.RunResult, slave piconet.SlaveID) stats.Summary {
	return harness.Aggregate(rs, func(r *scenario.Result) float64 {
		return r.SlaveKbps[slave]
	})
}

// classKbps aggregates a traffic class's total throughput across a cell's
// replications.
func classKbps(rs []harness.RunResult, class piconet.Class) stats.Summary {
	return harness.Aggregate(rs, func(r *scenario.Result) float64 {
		return r.TotalKbps(class)
	})
}

// cellViolations sums the GS bound violations across a cell's
// replications (must stay zero), skipping failed runs.
func cellViolations(rs []harness.RunResult) int {
	n := 0
	for _, r := range rs {
		if r.Err != nil || r.Result == nil {
			continue
		}
		n += len(r.Result.BoundViolations())
	}
	return n
}

// DefaultFig5Targets is the paper's Fig. 5 x-axis: delay requirements from
// 28 to 46 ms.
func DefaultFig5Targets() []time.Duration {
	var out []time.Duration
	for ms := 28; ms <= 46; ms += 2 {
		out = append(out, time.Duration(ms)*time.Millisecond)
	}
	return out
}

// Fig5Row is one point of the Figure 5 series: per-slave throughput at one
// GS delay requirement, aggregated over the configured replications.
type Fig5Row struct {
	Target time.Duration
	// SlaveKbps holds per-slave means across replications.
	SlaveKbps map[piconet.SlaveID]float64
	GSKbps    float64
	BEKbps    float64
	// GS and BE carry the full replication summaries (CI95 etc.).
	GS, BE stats.Summary
	// Reps is the number of replications aggregated into the row.
	Reps int
	// Violations counts GS flows whose measured max delay exceeded the
	// exported bound across all replications (must be zero).
	Violations int
	// Metric, Converged and CacheHits are set in adaptive mode: the
	// stopping-metric summary (Metric.CI95 is the final half-width the
	// rule compared against the tolerance), whether the tolerance was
	// met within the rep cap, and how many replications the run cache
	// replayed.
	Metric    stats.Summary
	Converged bool
	CacheHits int
}

// Figure5 regenerates the paper's Fig. 5: per-slave throughput versus the
// GS delay requirement on the Fig. 4 piconet under the PFP implementation
// of the variable-interval poller. With Config.CITarget set the sweep
// replicates adaptively (default metric: mean GS delay) and the table
// gains per-point "reps" and "ci_half" columns.
func Figure5(cfg Config, targets []time.Duration) ([]Fig5Row, *stats.Table, error) {
	cfg = cfg.withDefaults()
	if len(targets) == 0 {
		targets = DefaultFig5Targets()
	}
	g := paperGrid
	g.ci = harness.MeanGSDelay
	points, err := g.run(cfg, targets)
	if err != nil && !errors.Is(err, harness.ErrInterrupted) {
		return nil, nil, fmt.Errorf("experiments: figure 5: %w", err)
	}
	rows, tbl := fig5Table(cfg, points)
	if err != nil {
		// Interrupted: the completed cells render above; the caller
		// decides whether the partial table is worth printing.
		return rows, tbl, fmt.Errorf("experiments: figure 5: %w", err)
	}
	return rows, tbl, nil
}

// paperGrid is the Fig. 5 grid: the Fig. 4 piconet at each delay target.
// T2, T3 and E7 revisit its cells, so a run cache shares their runs.
var paperGrid = grid[time.Duration]{name: "fig5", label: time.Duration.String, build: scenario.Paper}

// fig5Table aggregates per-point results into the Fig. 5 rows and table.
func fig5Table(cfg Config, points []gridPoint[time.Duration]) ([]Fig5Row, *stats.Table) {
	columns := []string{
		"delay_req", "S1_kbps", "S2_kbps", "S3_kbps", "S4_kbps", "S5_kbps", "S6_kbps", "S7_kbps",
		"GS_total", "BE_total", "bound_ok"}
	if cfg.adaptive() {
		columns = append(columns, "reps", "ci_half")
	}
	tbl := stats.NewTable(
		fmt.Sprintf("Figure 5: throughput vs GS delay requirement (%v per point%s)",
			cfg.Duration, cfg.repNote()),
		columns...)
	var rows []Fig5Row
	for _, p := range points {
		rs := p.Runs
		row := Fig5Row{
			Target:     p.P,
			SlaveKbps:  make(map[piconet.SlaveID]float64),
			GS:         classKbps(rs, piconet.Guaranteed),
			BE:         classKbps(rs, piconet.BestEffort),
			Reps:       len(rs),
			Violations: cellViolations(rs),
		}
		row.GSKbps, row.BEKbps = row.GS.Mean, row.BE.Mean
		for slave := piconet.SlaveID(1); slave <= 7; slave++ {
			row.SlaveKbps[slave] = slaveKbps(rs, slave).Mean
		}
		ok := "yes"
		if row.Violations > 0 {
			ok = "VIOLATED"
		}
		cells := []any{row.Target,
			stats.FormatKbps(row.SlaveKbps[1]), stats.FormatKbps(row.SlaveKbps[2]),
			stats.FormatKbps(row.SlaveKbps[3]), stats.FormatKbps(row.SlaveKbps[4]),
			stats.FormatKbps(row.SlaveKbps[5]), stats.FormatKbps(row.SlaveKbps[6]),
			stats.FormatKbps(row.SlaveKbps[7]),
			kbpsCell(row.GS), kbpsCell(row.BE), ok}
		if o := p.Outcome; o != nil {
			row.Metric = o.Metric
			row.Converged = o.Converged
			row.CacheHits = o.CacheHits
			cells = append(cells, convergedReps(*o), fmt.Sprintf("%.3g", o.Metric.CI95))
		}
		rows = append(rows, row)
		tbl.AddRow(cells...)
	}
	return rows, tbl
}

// convergedReps renders an adaptive cell's replication count, flagging
// cells that hit the cap without meeting the tolerance.
func convergedReps(o harness.CellOutcome) string {
	if o.Converged {
		return fmt.Sprintf("%d", o.Reps())
	}
	return fmt.Sprintf("%d (cap)", o.Reps())
}

// T1 bundles the §4.1 analytical parameters (the paper's implicit table
// T1; the published text has OCR gaps, so these are re-derived from the
// paper's own formulas — see EXPERIMENTS.md).
type T1 struct {
	Spec        tspec.TSpec
	EtaMin      float64
	WorstSize   int
	Xi          time.Duration
	X           []time.Duration // per priority: x_1, x_2, x_3
	MaxRate     float64         // eta/x_lowest: the §4.1 admissible-rate cap
	MinBound    time.Duration   // tightest supportable bound for the lowest stream
	NeverExceed time.Duration   // bound at R = r for the lowest stream
}

// TableT1 recomputes the paper's §4.1 derived parameters through the
// admission machinery.
func TableT1() (T1, *stats.Table, error) {
	spec := tspec.CBR(20*time.Millisecond, 144, 176)
	cfg := admission.Config{MaxExchange: baseband.SlotsToDuration(6)}
	// The paper's flow set at the maximal feasible rate.
	ctrl := admission.NewController(cfg)
	maxRate := 144.0 / (11250e-6) // eta_min / x_3
	reqs := []admission.Request{
		{ID: 1, Slave: 1, Dir: piconet.Up, Spec: spec, Rate: maxRate, Allowed: baseband.PaperTypes},
		{ID: 2, Slave: 2, Dir: piconet.Down, Spec: spec, Rate: maxRate, Allowed: baseband.PaperTypes},
		{ID: 3, Slave: 2, Dir: piconet.Up, Spec: spec, Rate: maxRate, Allowed: baseband.PaperTypes},
		{ID: 4, Slave: 3, Dir: piconet.Up, Spec: spec, Rate: maxRate, Allowed: baseband.PaperTypes},
	}
	for _, r := range reqs {
		if _, err := ctrl.Admit(r); err != nil {
			return T1{}, nil, fmt.Errorf("experiments: T1 admit %d: %w", r.ID, err)
		}
	}
	t1 := T1{Spec: spec, Xi: baseband.SlotsToDuration(6), MaxRate: maxRate}
	seen := map[int]bool{}
	for _, pf := range ctrl.Flows() {
		if t1.EtaMin == 0 {
			t1.EtaMin = pf.Params.EtaMin
			t1.WorstSize = pf.Params.WorstSize
		}
		if !seen[pf.Priority] {
			seen[pf.Priority] = true
			t1.X = append(t1.X, pf.X)
		}
	}
	lowest := ctrl.Flows()[len(ctrl.Flows())-1]
	t1.MinBound = lowest.Bound
	never, err := gs.MaxDelayBound(spec, lowest.Terms)
	if err != nil {
		return T1{}, nil, fmt.Errorf("experiments: T1 bound: %w", err)
	}
	t1.NeverExceed = never

	tbl := stats.NewTable("T1: §4.1 derived parameters (re-derived; OCR gaps in the published text)",
		"quantity", "value")
	tbl.AddRow("TSpec p=r (bytes/s)", spec.TokenRate)
	tbl.AddRow("TSpec b=M (bytes)", spec.MaxTransferUnit)
	tbl.AddRow("TSpec m (bytes)", spec.MinPolicedUnit)
	tbl.AddRow("eta_min (bytes/poll)", t1.EtaMin)
	tbl.AddRow("eta_min packet size", t1.WorstSize)
	tbl.AddRow("Xi (worst exchange)", t1.Xi)
	for i, x := range t1.X {
		tbl.AddRow(fmt.Sprintf("x at priority %d", i+1), x)
	}
	tbl.AddRow("max admissible R (bytes/s)", fmt.Sprintf("%.0f", t1.MaxRate))
	tbl.AddRow("tightest bound, lowest stream", t1.MinBound)
	tbl.AddRow("bound at R=r (never exceeded)", t1.NeverExceed)
	return t1, tbl, nil
}

// T2Row is one delay-compliance measurement. With replications, Samples
// sums across the cell and MaxSeen/P99 take the worst replication.
type T2Row struct {
	Target  time.Duration
	Flow    piconet.FlowID
	Bound   time.Duration
	MaxSeen time.Duration
	P99     time.Duration
	Samples uint64
	OK      bool
}

// TableT2 verifies the paper's §4.2 claim: over the full run, no GS packet
// delay exceeds the requested (clamped) bound, at every delay requirement.
func TableT2(cfg Config, targets []time.Duration) ([]T2Row, *stats.Table, error) {
	cfg = cfg.withDefaults()
	if len(targets) == 0 {
		targets = []time.Duration{29 * time.Millisecond, 38 * time.Millisecond, 46 * time.Millisecond}
	}
	points, err := paperGrid.run(cfg, targets)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: T2: %w", err)
	}
	tbl := stats.NewTable(
		fmt.Sprintf("T2: delay-bound compliance (%v per run%s; paper: 530 s, 25000 samples/flow)",
			cfg.Duration, cfg.repNote()),
		"delay_req", "flow", "samples", "p99", "max_delay", "bound", "ok")
	var rows []T2Row
	for _, p := range points {
		rs := p.Runs
		for _, f := range rs[0].Result.Flows {
			if f.Class != piconet.Guaranteed {
				continue
			}
			row := T2Row{Target: p.P, Flow: f.ID, Bound: f.Bound}
			for _, r := range rs {
				rf, ok := r.Result.FlowByID(f.ID)
				if !ok {
					continue
				}
				row.Samples += rf.Delivered
				if rf.DelayMax > row.MaxSeen {
					row.MaxSeen = rf.DelayMax
				}
				if rf.DelayP99 > row.P99 {
					row.P99 = rf.DelayP99
				}
			}
			row.OK = row.MaxSeen <= row.Bound
			rows = append(rows, row)
			ok := "yes"
			if !row.OK {
				ok = "VIOLATED"
			}
			tbl.AddRow(row.Target, row.Flow, row.Samples,
				row.P99.Round(time.Microsecond), row.MaxSeen.Round(time.Microsecond),
				row.Bound.Round(time.Microsecond), ok)
		}
	}
	return rows, tbl, nil
}

// T3 bundles the §4.2 capacity result, aggregated over replications.
type T3 struct {
	GSKbps    float64
	BEKbps    float64
	TotalKbps float64
	// GS, BE and Total carry the full replication summaries.
	GS, BE, Total stats.Summary
	// PerSlave is the per-slave throughput (mean across replications) at
	// the loose requirement.
	PerSlave map[piconet.SlaveID]float64
	// AllBEAtMax reports whether every BE slave reached its offered load
	// (within 2%) in every replication.
	AllBEAtMax bool
}

// TableT3 reproduces the §4.2 total-throughput claim: at a loose delay
// requirement the piconet carries ~656 kbps (256 kbps GS + 400 kbps BE)
// with every BE flow at its offered maximum.
func TableT3(cfg Config) (T3, *stats.Table, error) {
	cfg = cfg.withDefaults()
	points, err := paperGrid.run(cfg, []time.Duration{46 * time.Millisecond})
	if err != nil {
		return T3{}, nil, fmt.Errorf("experiments: T3: %w", err)
	}
	results := points[0].Runs
	t3 := T3{
		GS:         classKbps(results, piconet.Guaranteed),
		BE:         classKbps(results, piconet.BestEffort),
		PerSlave:   make(map[piconet.SlaveID]float64),
		AllBEAtMax: true,
	}
	t3.Total = harness.Aggregate(results, func(r *scenario.Result) float64 {
		return r.TotalKbps(piconet.Guaranteed) + r.TotalKbps(piconet.BestEffort)
	})
	t3.GSKbps, t3.BEKbps, t3.TotalKbps = t3.GS.Mean, t3.BE.Mean, t3.Total.Mean
	for slave := piconet.SlaveID(1); slave <= 7; slave++ {
		t3.PerSlave[slave] = slaveKbps(results, slave).Mean
	}
	for _, r := range results {
		for _, b := range r.Run.Spec.BE {
			f, _ := r.Result.FlowByID(b.ID)
			if f.Kbps < b.RateKbps*0.98 {
				t3.AllBEAtMax = false
			}
		}
	}
	tbl := stats.NewTable(
		fmt.Sprintf("T3: carried throughput at a loose (46 ms) requirement (%v%s; paper: 656 kbps total)",
			cfg.Duration, cfg.repNote()),
		"quantity", "kbps")
	tbl.AddRow("GS total (paper: 256)", kbpsCell(t3.GS))
	tbl.AddRow("BE total (paper: 400)", kbpsCell(t3.BE))
	tbl.AddRow("total (paper: 656)", kbpsCell(t3.Total))
	for slave := piconet.SlaveID(1); slave <= 7; slave++ {
		tbl.AddRow(fmt.Sprintf("slave S%d", slave), stats.FormatKbps(t3.PerSlave[slave]))
	}
	return t3, tbl, nil
}
