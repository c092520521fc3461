package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"bluegs/internal/experiments"
	"bluegs/internal/fabric"
	"bluegs/internal/harness"
	"bluegs/internal/scenario"
)

// sizes fixes how much work one iteration of each workload does. The
// benchmark runs at fullSize; the smoke tests shrink it.
type sizes struct {
	// catalogueHorizon is the simulated time of every catalogue run.
	catalogueHorizon time.Duration
	// scatterHorizon and scatterReps shape the 8-piconet scatternet job.
	scatterHorizon time.Duration
	scatterReps    int
	// replayHorizon and replayReps shape the Fig. 5 grid the replay
	// workload fills into its disk cache.
	replayHorizon time.Duration
	replayReps    int
	// fabricHorizon and fabricReps shape the Fig. 5 grid the fabric runs.
	fabricHorizon time.Duration
	fabricReps    int
	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats int
	// probeReps and probeOps size the layer probes: each timing repeats
	// probeReps times, over probeOps calls for per-call costs.
	probeReps int
	probeOps  int
	// probeHorizon is the simulated time of the paper and scatternet probe
	// runs; probeFabricReps the replications of the fabric probe's grid.
	probeHorizon    time.Duration
	probeFabricReps int
}

// fullSize is the benchmark's work per iteration. The paper evaluates at
// 530 s horizons; the horizons here are shorter so that each workload fits
// about twenty or more iterations (of 0.2 to 1.1 s) into one run, whose median
// is what the run reports. The catalogue runs at 15 s, where every
// guarantee it checks holds on the seeds README.md lists; at 20, 30 and
// 60 s E11 violates a retained contract on seed 1.
var fullSize = sizes{
	catalogueHorizon: 15 * time.Second,
	scatterHorizon:   120 * time.Second,
	scatterReps:      2,
	replayHorizon:    60 * time.Second,
	replayReps:       5,
	fabricHorizon:    2 * time.Second,
	fabricReps:       10,
	setupRepeats:     3,
	probeReps:        5,
	probeOps:         2000,
	probeHorizon:     10 * time.Second,
	probeFabricReps:  10,
}

// env is what a workload builds its inputs from.
type env struct {
	seed    int64
	size    sizes
	dir     string // scratch directory inside the checkout
	workers int    // harness worker-pool size
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	why   string
	setup func(e env) (instance, error)
}

// instance is a set-up workload: inputs built and reference outputs known.
type instance interface {
	// iterate runs one timed iteration, routing every sweep through x.
	iterate(x *executor) (any, error)
	// verify checks one iteration's output against the reference and the
	// workload's own invariants; notes carry information, not checks.
	verify(out any) (checks []verdict, notes []string)
	// simulated is the simulated time one iteration resolves.
	simulated() time.Duration
	// idle is the timer wait one iteration contains. The host's speed
	// does not stretch a timer, so reference-second scaling leaves it out.
	idle() time.Duration
	close() error
}

// verdict is the outcome of one output check.
type verdict struct {
	name   string
	ok     bool
	detail string
}

func check(name string, ok bool, format string, args ...any) verdict {
	return verdict{name: name, ok: ok, detail: fmt.Sprintf(format, args...)}
}

// workloads are closed-loop batch jobs with one client: each iteration
// starts when the previous one has finished, and every sweep runs on
// poolWorkers harness workers. BENCHMARK.json carries the same names and
// reasons.
var workloads = []workload{
	{name: "catalogue", setup: setupCatalogue,
		why: "the cmd/report catalogue (T1-E12) at 15 s, no cache: the headline job, mostly flat-piconet engine, core and poller"},
	{name: "scatternet_8pn", setup: setupScatternet,
		why: "two 8-piconet interference-coupled runs on one kernel worker: the sharded kernel and radio medium dominate, flat-piconet changes barely show"},
	{name: "fig5_replay", setup: setupReplay,
		why: "the Fig. 5 grid replayed from a disk run cache through a fresh RunCache: key, read, CRC and gob decode only; the fill lands in setup_s"},
	{name: "fabric_1w", setup: setupFabric,
		why: "a 2 s Fig. 5 grid through an in-process fabric coordinator and one HTTP worker: lease JSON, HTTP and entry codec dominate"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// render is the deterministic text form of a run list that output checks
// compare: each run's report and admission log. Gob bytes would not do —
// gob encodes maps in random order.
func render(results []harness.RunResult) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "run %d cell %s rep %d seed %d\n", r.Run.Index, r.Run.Cell, r.Run.Rep, r.Run.Spec.Seed)
		if r.Err != nil {
			fmt.Fprintf(&b, "error: %v\n", r.Err)
			continue
		}
		res := r.Result
		fmt.Fprintf(&b, "events %d slots %+v\n", res.Events, res.Slots)
		res.Report().WriteText(&b)
		if adm := res.AdmissionReport(); adm != nil {
			adm.WriteText(&b)
		}
	}
	return b.String()
}

func digest(s string) [32]byte { return sha256.Sum256([]byte(s)) }

// matches checks an iteration's rendering against the reference digest.
func matches(name string, text string, ref [32]byte) verdict {
	got := digest(text)
	return check(name, got == ref, "rendering sha256 %x, reference %x", got[:8], ref[:8])
}

// simulatedTime sums the horizons of a run list.
func simulatedTime(runs []harness.Run) time.Duration {
	var d time.Duration
	for _, r := range runs {
		d += r.Spec.Duration
	}
	return d
}

// --- scatternet_8pn ---

type scatternet struct {
	runs []harness.Run
	ref  [32]byte
}

func setupScatternet(e env) (instance, error) {
	spec := scenario.Scatternet(scenario.ScatternetConfig{Piconets: 8})
	spec.BatchTraffic = true
	grid := harness.Grid{Name: "scatternet_8pn", Cells: []string{"8pn"},
		Build: func(string) scenario.Spec { return spec }}
	s := &scatternet{runs: grid.Sweep(harness.SweepConfig{
		Duration: e.size.scatterHorizon, Seed: e.seed, Replications: e.size.scatterReps}).Runs}
	// The reference runs the shards at the default kernel worker count (one
	// per core); iterations run them on one kernel worker, and must match.
	results, err := harness.Execute(s.runs, harness.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	s.ref = digest(render(results))
	return s, nil
}

// iterate runs every shard on one kernel worker. At the default worker
// count the shards meet at an epoch barrier every 25 simulated ms, a few
// hundred host microseconds apart, so each iteration's time would mostly
// measure how promptly the shared host wakes the second core.
// sim.shard_speedup prices the parallel path instead.
func (s *scatternet) iterate(x *executor) (any, error) {
	return x.Execute(s.runs, harness.Options{Workers: 1, KernelWorkers: 1})
}

func (s *scatternet) verify(out any) ([]verdict, []string) {
	return []verdict{matches("results equal the default-KernelWorkers reference", render(out.([]harness.RunResult)), s.ref)}, nil
}

func (s *scatternet) simulated() time.Duration { return simulatedTime(s.runs) }
func (s *scatternet) idle() time.Duration      { return 0 }
func (s *scatternet) close() error             { return nil }

// --- fig5_replay ---

type replay struct {
	runs    []harness.Run
	dir     string
	workers int
	ref     [32]byte
}

// replayOut is one replay iteration's results and its cache's counters.
type replayOut struct {
	results []harness.RunResult
	stats   harness.CacheStats
}

func setupReplay(e env) (instance, error) {
	dir, err := os.MkdirTemp(e.dir, "replay-")
	if err != nil {
		return nil, err
	}
	r := &replay{dir: dir, workers: e.workers, runs: harness.Fig5Sweep(harness.SweepConfig{
		Duration: e.size.replayHorizon, Seed: e.seed, Replications: e.size.replayReps},
		experiments.DefaultFig5Targets()).Runs}
	cache, err := harness.NewRunCache(harness.CacheConfig{Dir: dir})
	if err == nil {
		var results []harness.RunResult
		results, err = harness.Execute(r.runs, harness.Options{Workers: e.workers, Cache: cache})
		r.ref = digest(render(results))
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return r, nil
}

func (r *replay) iterate(x *executor) (any, error) {
	cache, err := harness.NewRunCache(harness.CacheConfig{Dir: r.dir})
	if err != nil {
		return nil, err
	}
	results, err := x.Execute(r.runs, harness.Options{Workers: r.workers, Cache: cache})
	return replayOut{results, cache.Stats()}, err
}

func (r *replay) verify(out any) ([]verdict, []string) {
	o := out.(replayOut)
	n := uint64(len(r.runs))
	return []verdict{
		check("every run replayed from disk", o.stats.Hits == n && o.stats.DiskHits == n,
			"cache: %s", o.stats),
		matches("replayed results equal the cold fill", render(o.results), r.ref),
	}, nil
}

func (r *replay) simulated() time.Duration { return simulatedTime(r.runs) }
func (r *replay) idle() time.Duration      { return 0 }
func (r *replay) close() error             { return os.RemoveAll(r.dir) }

// --- fabric_1w ---

type fabricLoad struct {
	runs []harness.Run
	ref  [32]byte
}

// fabricOut is one fabric iteration's results and coordinator counters.
type fabricOut struct {
	results []harness.RunResult
	stats   fabric.CoordinatorStats
}

func setupFabric(e env) (instance, error) {
	f := &fabricLoad{runs: harness.Fig5Sweep(harness.SweepConfig{
		Duration: e.size.fabricHorizon, Seed: e.seed, Replications: e.size.fabricReps},
		experiments.DefaultFig5Targets()).Runs}
	results, err := harness.Execute(f.runs, harness.Options{Workers: e.workers})
	if err != nil {
		return nil, err
	}
	f.ref = digest(render(results))
	return f, nil
}

func (f *fabricLoad) iterate(x *executor) (any, error) {
	results, stats, err := fabricSweep(x, f.runs, poolWorkers, true)
	return fabricOut{results, stats}, err
}

func (f *fabricLoad) verify(out any) ([]verdict, []string) {
	o := out.(fabricOut)
	return []verdict{
		check("every run computed by a worker", o.stats.FromWorkers == uint64(len(f.runs)), "coordinator: %s", o.stats),
		matches("fabric results equal in-process harness.Execute", render(o.results), f.ref),
	}, []string{"fabric: " + o.stats.String()}
}

func (f *fabricLoad) simulated() time.Duration { return simulatedTime(f.runs) }
func (f *fabricLoad) idle() time.Duration      { return workerPoll }
func (f *fabricLoad) close() error             { return nil }

// workerPoll is fabric.RunWorker's default idle re-poll interval, the one
// sweepd workers run with. It is set explicitly because an iteration that
// waits one Poll reports that wait as idle time (see idle).
const workerPoll = 300 * time.Millisecond

// fabricSweep runs one sweep through a fresh in-process coordinator with no
// cache, computed by `workers` RunWorker goroutines (Workers: 1 each,
// workerPoll) over HTTP. With joinFirst, every worker has asked for work
// before the sweep is submitted, found none, and waits exactly one Poll
// before its first lease, as a sweepd worker started with its coordinator
// does; the submission overlaps that wait. Without it, the sweep is
// submitted first and the workers join as it is. It returns once the sweep
// is resolved and every worker and the coordinator have stopped.
func fabricSweep(x *executor, runs []harness.Run, workers int, joinFirst bool) ([]harness.RunResult, fabric.CoordinatorStats, error) {
	cfg := fabric.CoordinatorConfig{Grid: "fig5"}
	// The coordinator logs a worker's first lease request ("worker %s
	// joined") under the lock that submission also takes, so a join seen
	// here was answered before the sweep existed.
	joined := make(chan struct{}, workers)
	if joinFirst {
		cfg.Logf = func(format string, _ ...any) {
			if strings.HasSuffix(format, " joined") {
				joined <- struct{}{}
			}
		}
	}
	coord, err := fabric.NewCoordinator(cfg)
	if err != nil {
		return nil, fabric.CoordinatorStats{}, err
	}
	x.inner = coord
	// A worker that cannot join would leave the sweep waiting forever;
	// its error interrupts the sweep instead.
	interrupt := make(chan struct{})
	var stopOnce sync.Once
	var workerErr error
	var results []harness.RunResult
	done := make(chan struct{})
	submit := func() {
		go func() {
			defer close(done)
			results, err = x.Execute(runs, harness.Options{Interrupt: interrupt})
		}()
	}
	if !joinFirst {
		submit()
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, werr := fabric.RunWorker(ctx, fabric.WorkerConfig{
				Coordinator: coord.Addr(), Name: fmt.Sprintf("bench-w%d", i), Workers: 1, Poll: workerPoll,
			})
			if werr != nil {
				stopOnce.Do(func() {
					workerErr = werr
					close(interrupt)
				})
			}
		}(i)
	}
	if joinFirst {
		if err = awaitJoins(joined, interrupt, workers); err != nil {
			close(done)
		} else {
			submit()
		}
	}
	<-done
	cancel()
	wg.Wait()
	stats := coord.Stats()
	if cerr := coord.Close(); err == nil {
		err = cerr
	}
	if workerErr != nil {
		err = fmt.Errorf("fabric worker: %w", workerErr)
	}
	return results, stats, err
}

// awaitJoins waits until n workers have joined, or one has failed (the
// sweep is then interrupted as soon as it starts), or 10 s have passed.
func awaitJoins(joined, failed <-chan struct{}, n int) error {
	timeout := time.After(10 * time.Second)
	for k := 0; k < n; k++ {
		select {
		case <-joined:
		case <-failed:
			return nil
		case <-timeout:
			return fmt.Errorf("fabric: %d of %d workers joined within 10 s", k, n)
		}
	}
	return nil
}
