package harness

import (
	"errors"
	"fmt"
	"math"

	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
	"bluegs/internal/stats"
)

// Errors returned by the adaptive executor.
var (
	ErrNoMetric    = errors.New("harness: adaptive execution needs a metric")
	ErrNoTolerance = errors.New("harness: adaptive execution needs a positive relative CI tolerance")
)

// DefaultMaxReps is the adaptive replication cap applied when
// AdaptiveOptions.MaxReps is zero (callers rendering the cap in titles
// use it too).
const DefaultMaxReps = 32

// Metric maps a completed run to the scalar the adaptive stopping rule
// watches. Metrics must be pure functions of the result so adaptive
// replication stays deterministic.
type Metric struct {
	// Name identifies the metric in flags and reports.
	Name string
	// Eval extracts the per-run value.
	Eval func(*scenario.Result) float64
}

// MeanGSDelay is the delivered-packet-weighted mean delay of the
// Guaranteed Service flows, in seconds — the paper's delay-guarantee
// curves are Monte-Carlo estimates of exactly this kind of quantity.
var MeanGSDelay = Metric{Name: "gs-delay", Eval: func(r *scenario.Result) float64 {
	var weighted float64
	var delivered uint64
	for _, f := range r.Flows {
		if f.Class != piconet.Guaranteed || f.Delivered == 0 {
			continue
		}
		weighted += f.DelayMean.Seconds() * float64(f.Delivered)
		delivered += f.Delivered
	}
	if delivered == 0 {
		return 0
	}
	return weighted / float64(delivered)
}}

// ViolationFraction is the fraction of Guaranteed Service flows whose
// measured maximum delay exceeded the exported bound (0 for a correct
// scheduler; its confidence interval quantifies how sure the sweep is).
var ViolationFraction = Metric{Name: "violations", Eval: (*scenario.Result).ViolationFraction}

// GSThroughput is the total delivered Guaranteed Service rate in kbps.
var GSThroughput = Metric{Name: "gs-kbps", Eval: func(r *scenario.Result) float64 {
	return r.TotalKbps(piconet.Guaranteed)
}}

// BEThroughput is the total delivered best-effort rate in kbps (the
// natural target for the BE-only poller comparison).
var BEThroughput = Metric{Name: "be-kbps", Eval: func(r *scenario.Result) float64 {
	return r.TotalKbps(piconet.BestEffort)
}}

// MetricByName resolves a metric from its flag spelling.
func MetricByName(name string) (Metric, error) {
	for _, m := range []Metric{MeanGSDelay, ViolationFraction, GSThroughput, BEThroughput} {
		if m.Name == name {
			return m, nil
		}
	}
	return Metric{}, fmt.Errorf("harness: unknown CI metric %q (want gs-delay, violations, gs-kbps or be-kbps)", name)
}

// AdaptiveOptions tunes ExecuteAdaptive: the execution options of the
// underlying batches plus the confidence-driven stopping rule.
type AdaptiveOptions struct {
	Options
	// Metric is the per-run scalar the stopping rule watches (required).
	Metric Metric
	// RelTol stops a cell once the 95% CI half-width of the metric mean
	// is at most RelTol*|mean| (required positive).
	RelTol float64
	// MaxReps caps the replications per cell (default DefaultMaxReps,
	// at least minReps). A cell that reaches the cap stops with
	// Converged=false.
	MaxReps int
}

// The adaptive schedule: every cell first receives minReps replications
// (at least 2 are needed for any CI), then batchReps more per round
// until it converges or reaches MaxReps. The batch size is deliberately
// independent of Workers: batch composition — and therefore the per-cell
// replication count — depends only on simulation results, which is what
// keeps adaptive sweeps bit-identical at any worker count.
const (
	minReps   = 3
	batchReps = 4
)

// CellOutcome is the adaptive result of one grid cell.
type CellOutcome struct {
	// Cell names the grid point.
	Cell string
	// Runs holds every executed replication, in replication order.
	Runs []RunResult
	// Metric summarises the stopping metric across the replications;
	// Metric.CI95 is the final half-width the rule compared against the
	// tolerance.
	Metric stats.Summary
	// Converged reports that the tolerance was met (false: the cell
	// stopped at MaxReps).
	Converged bool
	// CacheHits counts replications served from the run cache.
	CacheHits int
}

// Reps returns the number of replications the cell used.
func (o CellOutcome) Reps() int { return len(o.Runs) }

// ConvergedAt reports whether a metric summary meets the stopping
// tolerance. It is a pure function of the summary, which is what makes
// the stopping rule — and therefore per-cell replication counts —
// identical wherever it is evaluated: in-process rounds or a fabric
// coordinator folding worker results.
func (o AdaptiveOptions) ConvergedAt(s stats.Summary) bool {
	if s.N < 2 {
		return false
	}
	return o.RelTol > 0 && s.CI95 <= o.RelTol*math.Abs(s.Mean)
}

// ExecuteAdaptive runs the grid with adaptive replication: every cell
// keeps receiving further independently seeded replications (in
// deterministic replication order, batched across the worker pool) until
// the 95% confidence half-width of its metric mean drops below the
// tolerance or the replication cap is reached. Outcomes are returned in
// grid cell order.
//
// Determinism: replication seeds derive from (cfg.Seed, rep) exactly as
// in fixed sweeps, batch sizes are worker-independent, and the stopping
// rule is a pure function of completed results — so per-cell replication
// counts, metric summaries and any tables rendered from them are
// bit-identical at any worker count, and a warmed cache replays the
// identical outcome without executing the simulator.
//
// The returned error is the first failing run in grid order, with the
// partial outcomes still returned.
func ExecuteAdaptive(g Grid, cfg SweepConfig, opts AdaptiveOptions) ([]CellOutcome, error) {
	return ExecuteAdaptiveWith(Execute, g, cfg, opts)
}

// ExecuteAdaptiveWith is ExecuteAdaptive over a pluggable batch executor.
// The fabric coordinator (internal/fabric) passes its lease-based Execute
// here, so the adaptive scheduling loop — batch composition, the stopping
// rule, the per-cell replication counts — is the *same code* in-process
// and distributed; only where each batch's runs execute differs. That is
// the structural form of the determinism contract: an unconverged cell's
// next rep-batch is leased out like any other work, which is exactly the
// work-stealing rule for hot cells.
func ExecuteAdaptiveWith(execute func([]Run, Options) ([]RunResult, error),
	g Grid, cfg SweepConfig, opts AdaptiveOptions) ([]CellOutcome, error) {
	if opts.Metric.Eval == nil {
		return nil, ErrNoMetric
	}
	if opts.RelTol <= 0 {
		return nil, ErrNoTolerance
	}
	cfg = cfg.WithDefaults()
	if opts.MaxReps <= 0 {
		opts.MaxReps = DefaultMaxReps
	}
	opts.MaxReps = max(opts.MaxReps, minReps)

	outcomes := make([]CellOutcome, len(g.Cells))
	active := make([]int, 0, len(g.Cells))
	for i, cell := range g.Cells {
		outcomes[i].Cell = cell
		active = append(active, i)
	}
	for len(active) > 0 {
		// Schedule one batch of further replications per active cell.
		var runs []Run
		counts := make([]int, 0, len(active))
		for _, ci := range active {
			done := len(outcomes[ci].Runs)
			n := batchReps
			if done < minReps {
				// The first round reaches exactly minReps, so a cell
				// whose metric is already tight stops as early as the
				// rule allows.
				n = minReps - done
			}
			if done+n > opts.MaxReps {
				n = opts.MaxReps - done
			}
			counts = append(counts, n)
			for rep := done; rep < done+n; rep++ {
				runs = append(runs, g.Run(cfg, len(runs), outcomes[ci].Cell, rep))
			}
		}
		results, err := execute(runs, opts.Options)

		// Fold the batch into the outcomes and re-evaluate the rule.
		idx := 0
		next := active[:0]
		for k, ci := range active {
			o := &outcomes[ci]
			o.Runs = append(o.Runs, results[idx:idx+counts[k]]...)
			idx += counts[k]
			var w stats.Welford
			o.CacheHits = 0
			for _, r := range o.Runs {
				if r.CacheHit {
					o.CacheHits++
				}
				if r.Err == nil && r.Result != nil {
					w.Add(opts.Metric.Eval(r.Result))
				}
			}
			o.Metric = w.Summary()
			o.Converged = len(o.Runs) >= minReps && opts.ConvergedAt(o.Metric)
			if !o.Converged && len(o.Runs) < opts.MaxReps {
				next = append(next, ci)
			}
		}
		if err != nil {
			return outcomes, err
		}
		active = next
	}
	return outcomes, nil
}
