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
//
// # Distributed sweeps
//
// With -addr the sweep runs across worker processes (and machines): the
// process becomes a fabric coordinator that shards the grid into leases
// over a small HTTP protocol, and the table it prints is byte-identical
// to the local run at any worker count. -join runs a worker instead:
//
//	fig5 -addr 127.0.0.1:9740 -duration 530s -reps 5 -cache-dir .runcache
//	fig5 -join 127.0.0.1:9740                        # no worker cache
//	fig5 -join 127.0.0.1:9740 -cache-dir .runcache   # worker-local cache
//
// Workers may start before or after the coordinator. Every result reaches
// the coordinator in the worker's /complete, and the coordinator stores it
// in its own -cache-dir; a worker's -cache-dir is local to that worker.
// The coordinator's -cache-dir is the sweep's durable record: a killed
// coordinator restarted with the same flags resolves every stored run
// from it and leases only the remainder. On exit the coordinator prints
// "fig5: fabric: N runs: C from cache, W from workers (…)" on stderr,
// the line the CI fabric smoke job greps to assert a restarted sweep
// re-executed nothing.
//
// SIGINT checkpoints instead of killing: in-flight runs finish (and land
// in the cache), the completed points print, and the process exits 130; a
// second SIGINT exits immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"bluegs/internal/experiments"
	"bluegs/internal/fabric"
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
		workers  = flag.Int("workers", 0, "parallel simulation workers, locally or in a -join worker (0 = GOMAXPROCS)")
		progress = flag.Bool("progress", false, "report sweep progress on stderr")
		from     = flag.Duration("from", 28*time.Millisecond, "first delay requirement")
		to       = flag.Duration("to", 46*time.Millisecond, "last delay requirement")
		step     = flag.Duration("step", 2*time.Millisecond, "sweep step")
		csv      = flag.Bool("csv", false, "emit CSV instead of a text table")
		ciTarget = flag.Float64("ci-target", 0, "adaptive replication: replicate each point until the 95% CI half-width of -ci-metric is below this fraction of its mean (0 = fixed -reps)")
		ciMetric = flag.String("ci-metric", "", "adaptive stopping metric: gs-delay, violations, gs-kbps or be-kbps (default gs-delay)")
		maxReps  = flag.Int("max-reps", 0, "adaptive replication cap per point (default 32)")
		cacheDir = flag.String("cache-dir", "", "content-addressed run cache directory: unchanged points replay instantly across invocations, and a coordinator restarted over it resumes its sweep")
		profile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with go tool pprof)")

		addr      = flag.String("addr", "", "serve the sweep to -join workers from a coordinator listening here (host:port; :port accepts remote workers)")
		leaseTTL  = flag.Duration("lease-ttl", 0, "coordinator: heartbeat deadline before a lease's runs are re-issued (default 10s)")
		leaseRuns = flag.Int("lease-runs", 0, "coordinator: runs handed out per lease (default 4)")
		verbose   = flag.Bool("v", false, "log fabric events (worker joins, lease expiries, failed stores) on stderr")
		join      = flag.String("join", "", "run a worker for the coordinator at this host:port instead of a sweep")
		name      = flag.String("name", "", "worker name in leases and logs (default hostname-pid)")
		poll      = flag.Duration("poll", 0, "worker: shortest interval between idle lease requests (default 300ms); a coordinator that holds idle requests is asked again at once")
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
	if *join == "" && (*step <= 0 || *to < *from) {
		return fmt.Errorf("bad sweep: from %v to %v step %v", *from, *to, *step)
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	var cache *harness.RunCache
	if *cacheDir != "" {
		cache, err = harness.NewRunCache(harness.CacheConfig{Dir: *cacheDir})
		if err != nil {
			return err
		}
		defer func() { fmt.Fprintf(os.Stderr, "fig5: cache: %s\n", cache.Stats()) }()
	}

	// First SIGINT checkpoints: in-flight runs finish (and land in the
	// cache), the completed points print below. A second exits immediately.
	interrupt := harness.InterruptOnSignal("fig5")

	if *join != "" {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-interrupt
			cancel()
		}()
		stats, err := fabric.RunWorker(ctx, fabric.WorkerConfig{
			Coordinator: *join,
			Name:        *name,
			Workers:     *workers,
			Cache:       cache,
			Poll:        *poll,
			Logf:        logf,
		})
		fmt.Fprintf(os.Stderr, "fig5: worker: %s\n", stats)
		return err
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
		Cache:        cache,
		Interrupt:    interrupt,
	}
	if *progress {
		cfg.Progress = harness.StderrProgress("fig5")
	}
	if *addr != "" {
		coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
			Addr:      *addr,
			Grid:      "fig5",
			Cache:     cache,
			LeaseTTL:  *leaseTTL,
			LeaseRuns: *leaseRuns,
			Logf:      logf,
		})
		if err != nil {
			return err
		}
		defer coord.Close()
		defer func() { fmt.Fprintf(os.Stderr, "fig5: fabric: %s\n", coord.Stats()) }()
		fmt.Fprintf(os.Stderr, "fig5: serving on %s (join with: fig5 -join %s)\n", coord.Addr(), coord.Addr())
		cfg.Executor = coord
	}

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
