package harness

import (
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"bluegs/internal/scenario"
)

// SweepConfig tunes sweep construction: the per-run horizon, the base
// seed, and how many independently seeded replications each cell runs.
// The zero value uses a 60 s horizon, seed 1 and one replication.
type SweepConfig struct {
	Duration     time.Duration
	Seed         int64
	Replications int
}

// WithDefaults fills the zero fields.
func (c SweepConfig) WithDefaults() SweepConfig {
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

// Sweep is an ordered grid of runs ready for Execute.
type Sweep struct {
	Name string
	Runs []Run
}

// Grid is the generative form of a sweep: the cells plus the spec
// factory, before any replication count is fixed. Execute-style fixed
// sweeps derive from it via Sweep; ExecuteAdaptive keeps the Grid around
// so it can keep scheduling further replications per cell until the
// confidence target is met.
//
// Build is called once per run and returns pure data (Spec carries no
// live model or observer instances — each run constructs its own radio
// model from the declarative RadioSpec), so sharing across concurrently
// executing runs is safe by construction. Cells must be unique:
// duplicates merge under one Cells key.
type Grid struct {
	Name  string
	Cells []string
	Build func(cell string) scenario.Spec
}

// Run materialises one (cell, replication) point of the grid: the
// factory's Seed and Duration fields are overwritten with the sweep
// horizon and the seed derived from (cfg.Seed, rep).
func (g Grid) Run(cfg SweepConfig, index int, cell string, rep int) Run {
	spec := g.Build(cell)
	spec.Duration = cfg.Duration
	spec.Seed = ReplicationSeed(cfg.Seed, rep)
	return Run{Index: index, Cell: cell, Rep: rep, Spec: spec}
}

// Sweep expands the grid into the fixed (cell × replication) run list.
func (g Grid) Sweep(cfg SweepConfig) Sweep {
	cfg = cfg.WithDefaults()
	sw := Sweep{Name: g.Name}
	for _, cell := range g.Cells {
		for rep := 0; rep < cfg.Replications; rep++ {
			sw.Runs = append(sw.Runs, g.Run(cfg, len(sw.Runs), cell, rep))
		}
	}
	return sw
}

// Fig5Sweep builds the paper's Figure 5 grid, the Fig. 4 piconet at every
// delay target, at a fixed replication count per SweepConfig. Cells are
// the target durations rendered with time.Duration.String.
func Fig5Sweep(cfg SweepConfig, targets []time.Duration) Sweep {
	cells := make([]string, len(targets))
	for i, t := range targets {
		cells[i] = t.String()
	}
	return Grid{Name: "fig5", Cells: cells, Build: func(cell string) scenario.Spec {
		return scenario.Paper(targets[slices.Index(cells, cell)])
	}}.Sweep(cfg)
}

// StderrProgress returns a progress callback that rewrites a
// "label: done/total runs" line on stderr, finishing it with a newline —
// the shared implementation behind the cmd tools' -progress flags.
func StderrProgress(label string) func(done, total int) {
	return func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d runs", label, done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// StartCPUProfile writes a CPU profile of the process to path until the
// returned stop is called, which flushes the profile and closes the
// file — the shared implementation behind the cmd tools' -cpuprofile
// flags.
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("harness: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("harness: cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("harness: cpu profile: %w", err)
		}
		return nil
	}, nil
}

// InterruptOnSignal returns a channel the first SIGINT or SIGTERM closes,
// after "label: interrupt — checkpointing (again to exit immediately)" on
// stderr: a sweep given it as Options.Interrupt finishes its in-flight
// runs and returns what completed. A second signal exits the process with
// status 1 at once — the shared implementation behind the cmd tools'
// checkpointing.
func InterruptOnSignal(label string) <-chan struct{} {
	interrupt := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintf(os.Stderr, "%s: interrupt — checkpointing (again to exit immediately)\n", label)
		close(interrupt)
		<-sig
		os.Exit(1)
	}()
	return interrupt
}
