// Command report regenerates every table and figure of the paper's
// evaluation in one run (the source of the numbers recorded in
// EXPERIMENTS.md).
//
// Usage:
//
//	report [-duration 530s] [-seed 1] [-reps 1] [-workers 0]
//	       [-ci-target 0.05] [-max-reps 32] [-cache-dir DIR]
//	       [-cpuprofile FILE]
//
// The default duration matches the paper's 530 s simulation runs. With
// -reps > 1 every experiment replicates each sweep cell under
// independently derived seeds and reports mean±95% CI throughput; the
// runs of each experiment fan out across -workers simulators with
// bit-identical results at any worker count.
//
// -ci-target switches the Monte-Carlo experiments (Fig. 5 and the A2
// poller comparison) to adaptive replication: each cell replicates until
// the 95% CI half-width of -ci-metric meets the target, up to -max-reps.
// -cache-dir backs every experiment with a content-addressed run cache,
// so re-rendering the report — or iterating on a single experiment —
// replays unchanged cells instantly; Fig. 5, T2 and T3 share grid cells
// and hit each other's entries even within one invocation. A
// `fig5 -addr` coordinator's -cache-dir is the same kind of directory,
// so pointing -cache-dir at it replays a distributed sweep's runs
// without simulating them.
//
// SIGINT checkpoints instead of killing: in-flight runs finish (and land
// in the cache), the interrupted experiment's completed cells print, and
// the process exits 130.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"bluegs/internal/experiments"
	"bluegs/internal/harness"
	"bluegs/internal/stats"
)

func main() {
	if err := run(); err != nil {
		if errors.Is(err, harness.ErrInterrupted) {
			fmt.Fprintln(os.Stderr, "report: interrupted — completed tables printed; cached runs replay on the next invocation")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		duration = flag.Duration("duration", 530*time.Second, "simulated time per run")
		seed     = flag.Int64("seed", 1, "random seed")
		reps     = flag.Int("reps", 1, "independently seeded replications per sweep cell")
		workers  = flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		progress = flag.Bool("progress", false, "report per-experiment progress on stderr")
		ciTarget = flag.Float64("ci-target", 0, "adaptive replication for Fig. 5 and A2: replicate each cell until the 95% CI half-width of -ci-metric is below this fraction of its mean (0 = fixed -reps)")
		ciMetric = flag.String("ci-metric", "", "adaptive stopping metric: gs-delay, violations, gs-kbps or be-kbps (default: per experiment)")
		maxReps  = flag.Int("max-reps", 0, "adaptive replication cap per cell (default 32)")
		cacheDir = flag.String("cache-dir", "", "content-addressed run cache directory shared by all experiments")
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
		cfg.Progress = harness.StderrProgress("report")
	}
	if *cacheDir != "" {
		cache, err := harness.NewRunCache(harness.CacheConfig{Dir: *cacheDir})
		if err != nil {
			return err
		}
		cfg.Cache = cache
		defer func() {
			fmt.Fprintf(os.Stderr, "report: cache: %s\n", cache.Stats())
		}()
	}

	// First SIGINT checkpoints: the running experiment finishes its
	// in-flight runs, prints its completed cells, and run returns
	// ErrInterrupted. A second SIGINT exits immediately.
	cfg.Interrupt = harness.InterruptOnSignal("report")

	// print renders the table (an interrupted experiment still prints the
	// cells it completed) and passes the error through.
	print := func(tbl *stats.Table, err error) error {
		if tbl != nil && (err == nil || errors.Is(err, harness.ErrInterrupted)) {
			if werr := tbl.WriteText(os.Stdout); werr != nil {
				return werr
			}
			fmt.Println()
		}
		return err
	}

	_, t1, err := experiments.TableT1()
	if err := print(t1, err); err != nil {
		return fmt.Errorf("T1: %w", err)
	}
	_, fig5, err := experiments.Figure5(cfg, nil)
	if err := print(fig5, err); err != nil {
		return fmt.Errorf("figure 5: %w", err)
	}
	_, t2, err := experiments.TableT2(cfg, nil)
	if err := print(t2, err); err != nil {
		return fmt.Errorf("T2: %w", err)
	}
	_, t3, err := experiments.TableT3(cfg)
	if err := print(t3, err); err != nil {
		return fmt.Errorf("T3: %w", err)
	}
	_, t4, err := experiments.TableT4(cfg)
	if err := print(t4, err); err != nil {
		return fmt.Errorf("T4: %w", err)
	}
	_, a1, err := experiments.AblationImprovements(cfg)
	if err := print(a1, err); err != nil {
		return fmt.Errorf("A1: %w", err)
	}
	_, a2, err := experiments.BaselinePollers(cfg)
	if err := print(a2, err); err != nil {
		return fmt.Errorf("A2: %w", err)
	}
	_, e5, err := experiments.RetransmissionStudy(cfg, nil)
	if err := print(e5, err); err != nil {
		return fmt.Errorf("E5: %w", err)
	}
	_, e6, err := experiments.SCOCoexistence(cfg)
	if err := print(e6, err); err != nil {
		return fmt.Errorf("E6: %w", err)
	}
	_, e7, _, err := experiments.DelayDistribution(cfg, 38*time.Millisecond)
	if err := print(e7, err); err != nil {
		return fmt.Errorf("E7: %w", err)
	}
	_, e8, err := experiments.ChurnStudy(cfg, nil)
	if err := print(e8, err); err != nil {
		return fmt.Errorf("E8: %w", err)
	}
	_, e8b, err := experiments.ChurnPollers(cfg, nil)
	if err := print(e8b, err); err != nil {
		return fmt.Errorf("E8b: %w", err)
	}
	_, e9, err := experiments.ScatternetStudy(cfg, nil, nil)
	if err := print(e9, err); err != nil {
		return fmt.Errorf("E9: %w", err)
	}
	_, e10, err := experiments.ScatternetAdmissionStudy(cfg, nil, nil)
	if err := print(e10, err); err != nil {
		return fmt.Errorf("E10: %w", err)
	}
	_, e11, err := experiments.FaultStudy(cfg, nil, nil, nil)
	if err := print(e11, err); err != nil {
		return fmt.Errorf("E11: %w", err)
	}
	_, e12, err := experiments.BridgeStudy(cfg, nil, nil, nil)
	if err := print(e12, err); err != nil {
		return fmt.Errorf("E12: %w", err)
	}
	return nil
}
