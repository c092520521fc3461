// Command sweepd runs a sweep across worker processes (and machines):
// one coordinator process shards the grid into leases over a small HTTP
// protocol, any number of workers execute leases through the ordinary
// harness, and the rendered table is byte-identical to the
// single-process run at any worker count.
//
// Coordinator (serves the Fig. 5 sweep, renders the table):
//
//	sweepd -addr 127.0.0.1:9740 -duration 530s -reps 5 -cache-dir .runcache
//
// Workers (any number, started before or after the coordinator):
//
//	sweepd -join 127.0.0.1:9740                        # no worker cache
//	sweepd -join 127.0.0.1:9740 -cache-dir .runcache   # worker-local cache
//
// Every result reaches the coordinator in the worker's /complete, and
// the coordinator stores it in its own -cache-dir. A worker's -cache-dir
// is local to that worker: it serves the runs it already holds and keeps
// the ones the worker computes.
//
// The coordinator's -cache-dir is the sweep's durable record: each
// entry is synced to disk as it lands. A killed coordinator restarts
// with the same flags and -cache-dir: every stored run resolves from
// the cache and only the remainder is leased out again. SIGINT
// checkpoints instead of killing: the cache keeps everything already
// computed, the partial table prints, and the process exits 130 (a
// second SIGINT exits immediately).
//
// On exit the coordinator prints one accounting line on stderr —
// "sweepd: fabric: N runs: C from cache, W from workers (…)" — which is
// what the CI fabric smoke job greps to assert a restarted sweep
// re-executed nothing.
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
			fmt.Fprintln(os.Stderr, "sweepd: interrupted — progress checkpointed; restart with the same -cache-dir to resume")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		join = flag.String("join", "", "worker mode: join the coordinator at this host:port")
		name = flag.String("name", "", "worker name in leases and logs (default hostname-pid)")
		poll = flag.Duration("poll", 0, "worker mode: shortest interval between idle lease requests (default 300ms); a coordinator that holds idle requests is asked again at once")

		addr      = flag.String("addr", "127.0.0.1:0", "coordinator listen address (use :port to accept remote workers)")
		leaseTTL  = flag.Duration("lease-ttl", 0, "heartbeat deadline before a lease's runs are re-issued (default 10s)")
		leaseRuns = flag.Int("lease-runs", 0, "runs handed out per lease (default 4)")

		duration = flag.Duration("duration", 60*time.Second, "simulated time per point")
		seed     = flag.Int64("seed", 1, "random seed")
		reps     = flag.Int("reps", 1, "independently seeded replications per point")
		workers  = flag.Int("workers", 0, "local simulation workers (worker mode; 0 = GOMAXPROCS)")
		progress = flag.Bool("progress", false, "report sweep progress on stderr")
		verbose  = flag.Bool("v", false, "log fabric events (worker joins, lease expiries, failed stores) on stderr")
		from     = flag.Duration("from", 28*time.Millisecond, "first delay requirement")
		to       = flag.Duration("to", 46*time.Millisecond, "last delay requirement")
		step     = flag.Duration("step", 2*time.Millisecond, "sweep step")
		csv      = flag.Bool("csv", false, "emit CSV instead of a text table")
		ciTarget = flag.Float64("ci-target", 0, "adaptive replication: replicate each point until the 95% CI half-width of -ci-metric is below this fraction of its mean (0 = fixed -reps)")
		ciMetric = flag.String("ci-metric", "", "adaptive stopping metric: gs-delay, violations, gs-kbps or be-kbps (default gs-delay)")
		maxReps  = flag.Int("max-reps", 0, "adaptive replication cap per point (default 32)")
		cacheDir = flag.String("cache-dir", "", "content-addressed run cache directory; a coordinator restarted over it resumes its sweep")
	)
	flag.Parse()

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	if *join != "" {
		return runWorker(workerFlags{
			coordinator: *join, name: *name, workers: *workers,
			cacheDir: *cacheDir, poll: *poll, logf: logf,
		})
	}
	return runCoordinator(coordinatorFlags{
		addr:     *addr,
		leaseTTL: *leaseTTL, leaseRuns: *leaseRuns,
		duration: *duration, seed: *seed, reps: *reps, progress: *progress,
		from: *from, to: *to, step: *step, csv: *csv,
		ciTarget: *ciTarget, ciMetric: *ciMetric, maxReps: *maxReps,
		cacheDir: *cacheDir, logf: logf,
	})
}

type workerFlags struct {
	coordinator, name string
	workers           int
	cacheDir          string
	poll              time.Duration
	logf              func(string, ...any)
}

func runWorker(f workerFlags) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-harness.InterruptOnSignal("sweepd")
		cancel()
	}()

	var cache *harness.RunCache
	if f.cacheDir != "" {
		var err error
		cache, err = harness.NewRunCache(harness.CacheConfig{Dir: f.cacheDir})
		if err != nil {
			return err
		}
		defer func() { fmt.Fprintf(os.Stderr, "sweepd: cache: %s\n", cache.Stats()) }()
	}
	stats, err := fabric.RunWorker(ctx, fabric.WorkerConfig{
		Coordinator: f.coordinator,
		Name:        f.name,
		Workers:     f.workers,
		Cache:       cache,
		Poll:        f.poll,
		Logf:        f.logf,
	})
	fmt.Fprintf(os.Stderr, "sweepd: worker: %s\n", stats)
	return err
}

type coordinatorFlags struct {
	addr           string
	leaseTTL       time.Duration
	leaseRuns      int
	duration       time.Duration
	seed           int64
	reps           int
	progress, csv  bool
	from, to, step time.Duration
	ciTarget       float64
	ciMetric       string
	maxReps        int
	cacheDir       string
	logf           func(string, ...any)
}

func runCoordinator(f coordinatorFlags) error {
	if f.step <= 0 || f.to < f.from {
		return fmt.Errorf("bad sweep: from %v to %v step %v", f.from, f.to, f.step)
	}
	var targets []time.Duration
	for t := f.from; t <= f.to; t += f.step {
		targets = append(targets, t)
	}

	var cache *harness.RunCache
	if f.cacheDir != "" {
		var err error
		cache, err = harness.NewRunCache(harness.CacheConfig{Dir: f.cacheDir})
		if err != nil {
			return err
		}
		defer func() { fmt.Fprintf(os.Stderr, "sweepd: cache: %s\n", cache.Stats()) }()
	}

	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Addr:      f.addr,
		Grid:      "fig5",
		Cache:     cache,
		LeaseTTL:  f.leaseTTL,
		LeaseRuns: f.leaseRuns,
		Logf:      f.logf,
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	defer func() { fmt.Fprintf(os.Stderr, "sweepd: fabric: %s\n", coord.Stats()) }()
	fmt.Fprintf(os.Stderr, "sweepd: serving fig5 on %s (join with: sweepd -join %s)\n",
		coord.Addr(), coord.Addr())

	cfg := experiments.Config{
		Duration:     f.duration,
		Seed:         f.seed,
		Replications: f.reps,
		CITarget:     f.ciTarget,
		CIMetric:     f.ciMetric,
		MaxReps:      f.maxReps,
		Cache:        cache,
		Executor:     coord,
		Interrupt:    harness.InterruptOnSignal("sweepd"),
	}
	if f.progress {
		cfg.Progress = harness.StderrProgress("sweepd")
	}

	rows, tbl, err := experiments.Figure5(cfg, targets)
	if tbl != nil && (err == nil || errors.Is(err, harness.ErrInterrupted)) {
		if f.csv {
			if werr := tbl.WriteCSV(os.Stdout); werr != nil {
				return werr
			}
		} else if werr := tbl.WriteText(os.Stdout); werr != nil {
			return werr
		}
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
