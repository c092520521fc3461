package experiments

import (
	"errors"
	"slices"

	"bluegs/internal/harness"
	"bluegs/internal/scenario"
)

// grid is a study's sweep in typed form: the label names a point's cell
// (the grouping key of its replications and of its runs in leases and
// errors) and build returns the scenario the point runs.
type grid[P any] struct {
	name  string
	label func(P) string
	build func(P) scenario.Spec
	// ci is the default stopping metric of a study that replicates
	// adaptively under Config.CITarget (Figure 5 and A2). A study
	// without one stays at Config.Replications.
	ci harness.Metric
}

// gridPoint is one point of a study with its completed replications, in
// replication order.
type gridPoint[P any] struct {
	P    P
	Cell string
	Runs []harness.RunResult
	// Outcome is the point's adaptive outcome (nil in fixed sweeps).
	Outcome *harness.CellOutcome
}

// harnessGrid drops every point whose label was already seen, the first
// one winning, and returns the kept points with the harness grid over
// their labels.
func (g grid[P]) harnessGrid(points []P) ([]P, harness.Grid) {
	var kept []P
	var cells []string
	for _, p := range points {
		if cell := g.label(p); !slices.Contains(cells, cell) {
			kept = append(kept, p)
			cells = append(cells, cell)
		}
	}
	return kept, harness.Grid{Name: g.name, Cells: cells, Build: func(cell string) scenario.Spec {
		return g.build(kept[slices.Index(cells, cell)])
	}}
}

// run executes the study's points through one Execute (or, for a study
// with a stopping metric under Config.CITarget, one ExecuteAdaptive) and
// returns each point with its completed replications, in grid order.
//
// An interrupted sweep (harness.ErrInterrupted) returns the points that
// completed at least one replication alongside the error, so a study may
// render a partial table; any other failure returns no points.
func (g grid[P]) run(cfg Config, points []P) ([]gridPoint[P], error) {
	kept, hg := g.harnessGrid(points)
	out := make([]gridPoint[P], 0, len(kept))
	add := func(i int, runs []harness.RunResult, o *harness.CellOutcome) {
		if runs = successful(runs); len(runs) > 0 {
			out = append(out, gridPoint[P]{P: kept[i], Cell: hg.Cells[i], Runs: runs, Outcome: o})
		}
	}
	if g.ci.Eval != nil && cfg.adaptive() {
		opts, err := cfg.adaptiveOptions(g.ci)
		if err != nil {
			return nil, err
		}
		outcomes, err := cfg.executor().ExecuteAdaptive(hg, cfg.sweep(), opts)
		if err != nil && !errors.Is(err, harness.ErrInterrupted) {
			return nil, err
		}
		for i := range outcomes {
			add(i, outcomes[i].Runs, &outcomes[i])
		}
		return out, err
	}
	sw := cfg.sweep()
	results, err := cfg.executor().Execute(hg.Sweep(sw).Runs, cfg.options())
	if err != nil && !errors.Is(err, harness.ErrInterrupted) {
		return nil, err
	}
	reps := sw.WithDefaults().Replications
	for i := range kept {
		add(i, results[i*reps:(i+1)*reps], nil)
	}
	return out, err
}

// successful filters a result list down to completed runs.
func successful(results []harness.RunResult) []harness.RunResult {
	return slices.DeleteFunc(slices.Clone(results), func(r harness.RunResult) bool {
		return r.Err != nil || r.Result == nil
	})
}
