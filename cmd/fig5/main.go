// Command fig5 regenerates Figure 5 of the paper: the throughput of every
// slave of the Fig. 4 piconet as a function of the Guaranteed Service delay
// requirement, under the PFP implementation of the variable-interval
// poller.
//
// Usage:
//
//	fig5 [flags]
//
// Example (the paper's full 530 s runs, five seeds per point, all cores):
//
//	fig5 -duration 530s -reps 5
//
// Adaptive replication runs each point until its 95% confidence interval
// is tight instead of a fixed -reps, and a run cache replays unchanged
// points instantly on the next sweep:
//
//	fig5 -duration 530s -ci-target 0.05 -max-reps 64 -cache-dir .runcache
//
// Re-run over a warm cache with -cpuprofile to profile the replay path
// alone (read the file with go tool pprof):
//
//	fig5 -duration 530s -cache-dir .runcache -cpuprofile replay.pprof
//
// Runs fan out across a worker pool (one isolated simulator per run);
// results are bit-identical at any -workers value, with or without a
// warm cache.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"bluegs/internal/experiments"
	"bluegs/internal/harness"
)

func main() {
	if err := run(); err != nil {
		if errors.Is(err, harness.ErrInterrupted) {
			fmt.Fprintln(os.Stderr, "fig5: interrupted — completed points printed; cached runs replay on the next invocation")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "fig5:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		duration = flag.Duration("duration", 60*time.Second, "simulated time per point")
		seed     = flag.Int64("seed", 1, "random seed")
		reps     = flag.Int("reps", 1, "independently seeded replications per point (adds 95% CIs)")
		workers  = flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		progress = flag.Bool("progress", false, "report sweep progress on stderr")
		from     = flag.Duration("from", 28*time.Millisecond, "first delay requirement")
		to       = flag.Duration("to", 46*time.Millisecond, "last delay requirement")
		step     = flag.Duration("step", 2*time.Millisecond, "sweep step")
		csv      = flag.Bool("csv", false, "emit CSV instead of a text table")
		ciTarget = flag.Float64("ci-target", 0, "adaptive replication: replicate each point until the 95% CI half-width of -ci-metric is below this fraction of its mean (0 = fixed -reps)")
		ciMetric = flag.String("ci-metric", "", "adaptive stopping metric: gs-delay, violations, gs-kbps or be-kbps (default gs-delay)")
		maxReps  = flag.Int("max-reps", 0, "adaptive replication cap per point (default 32)")
		cacheDir = flag.String("cache-dir", "", "content-addressed run cache directory: unchanged points replay instantly across invocations")
		profile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with go tool pprof)")
	)
	flag.Parse()
	if *profile != "" {
		stop, perr := harness.StartCPUProfile(*profile)
		if perr != nil {
			return perr
		}
		defer func() {
			if perr := stop(); err == nil {
				err = perr
			}
		}()
	}
	if *step <= 0 || *to < *from {
		return fmt.Errorf("bad sweep: from %v to %v step %v", *from, *to, *step)
	}
	var targets []time.Duration
	for t := *from; t <= *to; t += *step {
		targets = append(targets, t)
	}
	cfg := experiments.Config{
		Duration:     *duration,
		Seed:         *seed,
		Replications: *reps,
		Workers:      *workers,
		CITarget:     *ciTarget,
		CIMetric:     *ciMetric,
		MaxReps:      *maxReps,
	}
	if *progress {
		cfg.Progress = harness.StderrProgress("fig5")
	}
	if *cacheDir != "" {
		cache, err := harness.NewRunCache(harness.CacheConfig{Dir: *cacheDir})
		if err != nil {
			return err
		}
		cfg.Cache = cache
		defer func() { reportCache("fig5", cache) }()
	}

	// First SIGINT checkpoints: in-flight runs finish (and land in the
	// cache), the completed points print below. A second exits immediately.
	cfg.Interrupt = harness.InterruptOnSignal("fig5")

	rows, tbl, err := experiments.Figure5(cfg, targets)
	if err != nil && (tbl == nil || !errors.Is(err, harness.ErrInterrupted)) {
		return err
	}
	if *csv {
		if werr := tbl.WriteCSV(os.Stdout); werr != nil {
			return werr
		}
	} else if werr := tbl.WriteText(os.Stdout); werr != nil {
		return werr
	}
	if err != nil {
		return err
	}
	for _, r := range rows {
		if r.Violations > 0 {
			return fmt.Errorf("delay bound violated at requirement %v", r.Target)
		}
	}
	return nil
}

// reportCache prints the cache effectiveness line the CI smoke step (and
// anyone iterating on a sweep) checks: hits out of total lookups.
func reportCache(label string, cache *harness.RunCache) {
	fmt.Fprintf(os.Stderr, "%s: cache: %s\n", label, cache.Stats())
}
