// Package harness is the parallel experiment runner: it fans a grid of
// simulation runs (sweep cell × seed replication) out across a bounded
// worker pool and collects the results in grid order.
//
// Determinism is the design constraint. Every run owns an isolated
// sim.Simulator whose RNG seed is a pure function of the sweep's base seed
// and the run's replication index (see ReplicationSeed), and results are
// stored by run index, so a sweep produces bit-identical rows whether it
// executes on one worker or sixteen, and regardless of completion order.
// Replication 0 reuses the base seed itself, which makes a
// single-replication sweep reproduce the historical serial experiment
// loops exactly — the golden-table tests in internal/experiments rely on
// this.
//
// On top of the runner, a Grid (cells plus a spec factory) expands into
// a fixed Sweep or feeds ExecuteAdaptive; Fig5Grid is the paper's Fig. 5
// grid, and internal/experiments builds every other study's grid from
// typed points. The aggregation helpers reduce per-cell replications to
// mean/min/max/95%-confidence summaries via internal/stats.
//
// # Adaptive replication
//
// ExecuteAdaptive replaces the fixed replication count with a
// statistical stopping rule: every cell keeps receiving further
// independently seeded replications — scheduled in deterministic
// replication order, in worker-independent batches — until the 95%
// confidence half-width of its stopping Metric (mean GS delay, the
// bound-violation fraction, or a throughput) drops below a relative
// tolerance (RelTol×|mean|), or the MaxReps cap is reached. Because the batch composition depends only on simulation
// results, adaptive sweeps keep the runner's core guarantee: per-cell
// replication counts and every table rendered from them are
// bit-identical at any worker count.
//
// # The run cache
//
// Options.Cache plugs in a RunCache: a content-addressed result store
// keyed by the SHA-256 fingerprint of (scenario.Spec canonical rendering
// — which includes seed and horizon — plus a code-version salt, see
// DefaultCacheSalt). The cache is a directory of entry files, one per
// run, so re-running a sweep after changing one cell, re-anchoring
// goldens, or re-rendering reports replays every unchanged run without
// executing the simulator — across processes, with results that are
// bit-identical to the original execution. Runs carrying runtime Hooks
// (tracers, live radio instances) bypass the cache entirely.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"bluegs/internal/scenario"
	"bluegs/internal/sim"
	"bluegs/internal/stats"
)

// ErrRunPanicked is wrapped into a RunResult's Err when a run's
// simulation panicked. The panic is contained to that run: the worker
// survives and the sweep's other runs complete normally.
var ErrRunPanicked = errors.New("harness: run panicked")

// ErrInterrupted is the Err of every run a sweep abandoned because
// Options.Interrupt fired. Runs already dispatched to workers still
// finish (and are cached), so an interrupted sweep checkpoints cleanly:
// re-running it replays the completed prefix from the cache.
var ErrInterrupted = errors.New("harness: sweep interrupted")

// Run is one point of a sweep grid: a complete scenario specification plus
// its position (cell and replication) for aggregation.
type Run struct {
	// Index is the run's position in the sweep; results are returned in
	// index order regardless of completion order.
	Index int
	// Cell groups replications of the same grid point (e.g. one Fig. 5
	// delay target). Aggregation happens per cell.
	Cell string
	// Rep is the replication number within the cell (0-based). The
	// run's Spec.Seed must already be derived for this replication; the
	// Sweep builders do that via ReplicationSeed.
	Rep int
	// Spec is the scenario to simulate (pure data).
	Spec scenario.Spec
	// Hooks carries runtime-only attachments (a live tracer or radio
	// model instance). Hooked runs always execute and are never cached:
	// their side effects cannot be replayed.
	Hooks scenario.Hooks
}

// RunResult is the outcome of one executed run.
type RunResult struct {
	Run Run
	// Result is the completed simulation (nil when Err is set).
	Result *scenario.Result
	// Err is the run's failure, if any (simulation error or
	// ErrRunPanicked).
	Err error
	// Wall is the wall-clock time the run took.
	Wall time.Duration
	// CacheHit reports that Result was replayed from Options.Cache
	// instead of executing the simulator.
	CacheHit bool
}

// Options tunes Execute.
type Options struct {
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// OnProgress, when set, is called after every completed run with the
	// number of finished runs, the total, and the run's result. Calls
	// are serialized but completion order is scheduling-dependent; do
	// not derive results from it.
	OnProgress func(done, total int, r RunResult)
	// KernelWorkers, when non-zero, overrides Spec.KernelWorkers on every
	// dispatched run: the worker-goroutine bound of the sharded event
	// kernel inside each simulation. It is a pure execution knob —
	// results, fingerprints and cache keys are identical at any value —
	// so it composes freely with Cache (a warm cache serves the same
	// bytes a re-simulation at any worker count would produce).
	KernelWorkers int
	// Cache, when set, serves runs whose fingerprint it already holds
	// without executing the simulator, and stores every fresh result.
	// Runs carrying Hooks always execute (their side effects cannot
	// be replayed) and are never stored. Because cached results are the
	// stored bytes of an identical earlier run, sweeps remain
	// bit-identical whether the cache is cold, warm or partially warm.
	Cache *RunCache
	// Interrupt, when set and closed (or sent to), stops dispatching
	// further runs: in-flight runs finish and are cached, every
	// undispatched run's Err becomes ErrInterrupted, and Execute returns
	// the partial results with an error wrapping ErrInterrupted. A nil
	// channel never fires. This is how the cmd tools turn SIGINT into a
	// checkpoint-and-print-partial-table instead of dying mid-grid.
	Interrupt <-chan struct{}
}

// workers resolves the pool size.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Execute runs every Run across the worker pool and returns the results
// in run-index order. The returned error is the first failure in grid
// order (deterministic), with all results still returned so callers can
// inspect partial output.
func Execute(runs []Run, opts Options) ([]RunResult, error) {
	results := make([]RunResult, len(runs))
	if len(runs) == 0 {
		return results, nil
	}
	workers := opts.workers()
	if workers > len(runs) {
		workers = len(runs)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = execute(runs[i], opts)
				if opts.OnProgress != nil {
					progressMu.Lock()
					done++
					opts.OnProgress(done, len(runs), results[i])
					progressMu.Unlock()
				}
			}
		}()
	}
	interrupted := false
dispatch:
	for i := range runs {
		// Check the interrupt with priority before blocking on a worker:
		// once it has fired, no further run is dispatched (at most the
		// send already blocking below can still win its race).
		select {
		case <-opts.Interrupt:
			interrupted = true
		default:
		}
		if !interrupted {
			select {
			case jobs <- i:
				continue
			case <-opts.Interrupt:
				interrupted = true
			}
		}
		// Mark this and every later run abandoned; in-flight runs drain
		// normally below.
		for j := i; j < len(runs); j++ {
			results[j] = RunResult{Run: runs[j], Err: ErrInterrupted}
		}
		break dispatch
	}
	close(jobs)
	wg.Wait()

	if interrupted {
		return results, ErrInterrupted
	}
	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("harness: run %d (cell %q rep %d): %w",
				runs[i].Index, runs[i].Cell, runs[i].Rep, results[i].Err)
		}
	}
	return results, nil
}

// execute resolves one run: from the cache when possible, otherwise by
// running the scenario (and storing the fresh result).
func execute(run Run, opts Options) RunResult {
	if opts.KernelWorkers != 0 {
		// Safe to set before the cache-key hash: KernelWorkers is
		// excluded from the canonical rendering, so the key — and the
		// result — are identical at any worker count.
		run.Spec.KernelWorkers = opts.KernelWorkers
	}
	cacheable := opts.Cache != nil && run.Hooks.Zero()
	var key string
	if cacheable {
		// Hash once, before simulating: a stateful Radio model mutated
		// by the run must not skew the store key away from the lookup.
		key = opts.Cache.Key(run.Spec)
		start := time.Now()
		if res, ok := opts.Cache.getByKey(key, run.Spec); ok {
			return RunResult{Run: run, Result: res, Wall: time.Since(start), CacheHit: true}
		}
	}
	start := time.Now()
	res, err := runScenario(run.Spec, run.Hooks)
	rr := RunResult{Run: run, Result: res, Err: err, Wall: time.Since(start)}
	if cacheable && rr.Err == nil {
		// A store failure (full disk, bad permissions) must not fail
		// the sweep: the cache counts it in FailedStores, and the run
		// stays uncached.
		_ = opts.Cache.putByKey(key, rr.Result)
	}
	return rr
}

// runScenario executes one scenario, converting a panic anywhere inside
// the simulation into an ErrRunPanicked error (with the stack attached)
// so one faulty run is an inspectable per-run failure instead of a
// crashed sweep. A panic in an event handler arrives as the kernel's
// *sim.PanicError; one during setup or merge is recovered here.
func runScenario(spec scenario.Spec, hooks scenario.Hooks) (res *scenario.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("%w: %v\n%s", ErrRunPanicked, r, debug.Stack())
		}
	}()
	res, err = scenario.RunWith(spec, hooks)
	var pe *sim.PanicError
	if errors.As(err, &pe) {
		return nil, fmt.Errorf("%w: %v\n%s", ErrRunPanicked, pe.Value, pe.Stack)
	}
	return res, err
}

// ReplicationSeed derives the RNG seed of replication rep from a sweep's
// base seed. Replication 0 uses the base seed itself, so a
// single-replication sweep is bit-identical to the historical serial runs;
// higher replications pass (base, rep) through a splitmix64-style mix so
// their streams are decorrelated. The derivation depends only on the
// run's identity — never on scheduling — which is what makes sweeps
// reproducible at any worker count.
func ReplicationSeed(base int64, rep int) int64 {
	if rep == 0 {
		return base
	}
	z := uint64(base) + uint64(rep)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	seed := int64(z)
	if seed == 0 {
		// scenario treats seed 0 as "use the default"; avoid it.
		seed = 1
	}
	return seed
}

// Cells groups results by cell, preserving first-appearance (grid) order.
// Within a cell, results keep grid order too, so replications are ordered
// by Rep.
func Cells(results []RunResult) ([]string, map[string][]RunResult) {
	var order []string
	byCell := make(map[string][]RunResult)
	for _, r := range results {
		if _, ok := byCell[r.Run.Cell]; !ok {
			order = append(order, r.Run.Cell)
		}
		byCell[r.Run.Cell] = append(byCell[r.Run.Cell], r)
	}
	return order, byCell
}

// Aggregate reduces one cell's replications to a Summary of the metric,
// skipping failed runs.
func Aggregate(rs []RunResult, metric func(*scenario.Result) float64) stats.Summary {
	var w stats.Welford
	for _, r := range rs {
		if r.Err != nil || r.Result == nil {
			continue
		}
		w.Add(metric(r.Result))
	}
	return w.Summary()
}
