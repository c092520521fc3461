package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bluegs/internal/experiments"
	"bluegs/internal/harness"
	"bluegs/internal/piconet"
	"bluegs/internal/stats"
)

// testConfig is a small but non-trivial Fig. 5 slice: 3 cells × 2 reps.
func testConfig() (experiments.Config, []time.Duration) {
	cfg := experiments.Config{
		Duration:     2 * time.Second,
		Seed:         1,
		Replications: 2,
	}
	targets := []time.Duration{30 * time.Millisecond, 38 * time.Millisecond, 46 * time.Millisecond}
	return cfg, targets
}

// tableText renders a table to the exact bytes the cmd tools print.
func tableText(t *testing.T, tbl *stats.Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteText(&buf); err != nil {
		t.Fatalf("render table: %v", err)
	}
	return buf.String()
}

// startWorkers launches n workers against a coordinator and returns a
// stop function that waits for them to exit.
func startWorkers(t *testing.T, addr string, n int, mutate func(i int, cfg *WorkerConfig)) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := WorkerConfig{
			Coordinator: addr,
			Name:        "w" + string(rune('1'+i)),
			Workers:     2,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunWorker(ctx, cfg); err != nil {
				t.Errorf("worker %s: %v", cfg.Name, err)
			}
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// TestByteIdentityFixed is the acceptance criterion: a fixed-replication
// grid run by a coordinator with two workers renders the byte-identical
// Figure 5 table to the single-process run.
func TestByteIdentityFixed(t *testing.T) {
	cfg, targets := testConfig()
	_, localTbl, err := experiments.Figure5(cfg, targets)
	if err != nil {
		t.Fatalf("local figure5: %v", err)
	}

	coord, err := NewCoordinator(CoordinatorConfig{Grid: "fig5", LeaseRuns: 2})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	stop := startWorkers(t, coord.Addr(), 2, nil)
	defer stop()

	dcfg := cfg
	dcfg.Executor = coord
	_, distTbl, err := experiments.Figure5(dcfg, targets)
	if err != nil {
		t.Fatalf("distributed figure5: %v", err)
	}
	if got, want := tableText(t, distTbl), tableText(t, localTbl); got != want {
		t.Errorf("distributed table differs from local:\n--- local ---\n%s--- distributed ---\n%s", want, got)
	}
	st := coord.Stats()
	if want := uint64(len(targets) * cfg.Replications); st.Runs != want {
		t.Errorf("coordinator resolved %d runs, want %d", st.Runs, want)
	}
	if st.FromWorkers != st.Runs {
		t.Errorf("expected all %d runs from workers, got %d", st.Runs, st.FromWorkers)
	}
}

// TestByteIdentityAdaptive runs the same comparison under the CI
// stopping rule: per-cell adaptive replication counts (the "reps" table
// column) must match the in-process schedule exactly.
func TestByteIdentityAdaptive(t *testing.T) {
	cfg, targets := testConfig()
	cfg.Replications = 0
	cfg.CITarget = 0.2
	cfg.MaxReps = 6
	_, localTbl, err := experiments.Figure5(cfg, targets)
	if err != nil {
		t.Fatalf("local adaptive figure5: %v", err)
	}

	coord, err := NewCoordinator(CoordinatorConfig{Grid: "fig5", LeaseRuns: 2})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	stop := startWorkers(t, coord.Addr(), 2, nil)
	defer stop()

	dcfg := cfg
	dcfg.Executor = coord
	_, distTbl, err := experiments.Figure5(dcfg, targets)
	if err != nil {
		t.Fatalf("distributed adaptive figure5: %v", err)
	}
	if got, want := tableText(t, distTbl), tableText(t, localTbl); got != want {
		t.Errorf("adaptive distributed table differs from local:\n--- local ---\n%s--- distributed ---\n%s", want, got)
	}
}

// TestWorkerCrashRecovery kills a worker mid-lease (a lease is taken and
// never completed or heartbeated): after the TTL the coordinator
// re-issues the runs and the sweep finishes byte-identical, with no run
// lost or double-counted.
func TestWorkerCrashRecovery(t *testing.T) {
	cfg, targets := testConfig()
	_, localTbl, err := experiments.Figure5(cfg, targets)
	if err != nil {
		t.Fatalf("local figure5: %v", err)
	}

	coord, err := NewCoordinator(CoordinatorConfig{
		Grid:      "fig5",
		LeaseRuns: 2,
		LeaseTTL:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()

	// The "crashed" worker: grab a lease over the raw protocol as soon
	// as the sweep starts, then never heartbeat or complete it.
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Post("http://"+coord.Addr()+"/lease", "application/json",
				strings.NewReader(`{"worker":"crasher"}`))
			if err == nil {
				var lr LeaseResponse
				derr := json.NewDecoder(resp.Body).Decode(&lr)
				resp.Body.Close()
				if derr == nil && lr.Status == StatusLease {
					return // lease acquired and abandoned
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	stop := startWorkers(t, coord.Addr(), 1, nil)
	defer stop()

	dcfg := cfg
	dcfg.Executor = coord
	_, distTbl, err := experiments.Figure5(dcfg, targets)
	if err != nil {
		t.Fatalf("distributed figure5 with crash: %v", err)
	}
	<-crashed
	if got, want := tableText(t, distTbl), tableText(t, localTbl); got != want {
		t.Errorf("post-crash table differs from local:\n--- local ---\n%s--- distributed ---\n%s", want, got)
	}
	st := coord.Stats()
	if want := uint64(len(targets) * cfg.Replications); st.Runs != want {
		t.Errorf("resolved %d runs, want %d (no loss, no double count)", st.Runs, want)
	}
	if st.Expired == 0 {
		t.Errorf("expected at least one expired lease, stats: %s", st)
	}
}

// TestCacheResume restarts the coordinator after a completed sweep over
// a fresh RunCache on the first coordinator's directory, with no workers
// at all: every run must resolve from the cache, byte-identically,
// without a single lease.
func TestCacheResume(t *testing.T) {
	cfg, targets := testConfig()
	dir := t.TempDir()
	cache, err := harness.NewRunCache(harness.CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Grid: "fig5", Cache: cache, LeaseRuns: 2})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	stop := startWorkers(t, coord.Addr(), 2, nil)
	dcfg := cfg
	dcfg.Executor = coord
	_, firstTbl, err := experiments.Figure5(dcfg, targets)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	stop()
	coord.Close()

	// Restart over the same directory. No workers join: if anything
	// failed to reach the disk, the sweep would hang — guard with a
	// timeout via the harness interrupt.
	cache2, err := harness.NewRunCache(harness.CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewCoordinator(CoordinatorConfig{Grid: "fig5", Cache: cache2, LeaseRuns: 2})
	if err != nil {
		t.Fatalf("resume coordinator: %v", err)
	}
	defer resumed.Close()
	interrupt := make(chan struct{})
	timer := time.AfterFunc(30*time.Second, func() { close(interrupt) })
	defer timer.Stop()
	rcfg := cfg
	rcfg.Executor = resumed
	rcfg.Interrupt = interrupt
	_, resumedTbl, err := experiments.Figure5(rcfg, targets)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got, want := tableText(t, resumedTbl), tableText(t, firstTbl); got != want {
		t.Errorf("resumed table differs:\n--- first ---\n%s--- resumed ---\n%s", want, got)
	}
	st := resumed.Stats()
	if want := uint64(len(targets) * cfg.Replications); st.Runs != want || st.FromCache != want {
		t.Errorf("resume should serve all %d runs from the cache: %s", want, st)
	}
	if st.Leases != 0 || st.FromWorkers != 0 {
		t.Errorf("resume should lease nothing: %s", st)
	}
}

// TestCacheMidSweepResume interrupts a sweep partway (only some runs
// stored), tears one stored entry as a crash mid-write could, then
// restarts over a fresh RunCache on the same directory: intact entries
// resolve from the cache, the torn one and the rest execute, and the
// final table is byte-identical to an uninterrupted local run.
func TestCacheMidSweepResume(t *testing.T) {
	cfg, targets := testConfig()
	_, localTbl, err := experiments.Figure5(cfg, targets)
	if err != nil {
		t.Fatalf("local figure5: %v", err)
	}
	dir := t.TempDir()
	cache, err := harness.NewRunCache(harness.CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	// First life: one worker, interrupted after the first completions
	// arrive. A run is stored before it counts as done, so at least two
	// entries are on disk.
	coord, err := NewCoordinator(CoordinatorConfig{Grid: "fig5", Cache: cache, LeaseRuns: 1})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	stop := startWorkers(t, coord.Addr(), 1, nil)
	interrupt := make(chan struct{})
	var once sync.Once
	dcfg := cfg
	dcfg.Executor = coord
	dcfg.Interrupt = interrupt
	dcfg.Progress = func(done, total int) {
		if done >= 2 {
			once.Do(func() { close(interrupt) })
		}
	}
	_, _, err = experiments.Figure5(dcfg, targets)
	stop()
	coord.Close()
	if err == nil {
		t.Logf("sweep completed before the interrupt landed; the restart still resolves from the cache")
	}

	entries, err := filepath.Glob(filepath.Join(dir, "*.run.gob"))
	if err != nil || len(entries) < 2 {
		t.Fatalf("%d entries stored before the interrupt (err %v), want at least 2", len(entries), err)
	}
	torn, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[0], torn[:len(torn)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	cache2, err := harness.NewRunCache(harness.CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewCoordinator(CoordinatorConfig{Grid: "fig5", Cache: cache2, LeaseRuns: 2})
	if err != nil {
		t.Fatalf("resume coordinator: %v", err)
	}
	defer resumed.Close()
	stop2 := startWorkers(t, resumed.Addr(), 2, nil)
	defer stop2()
	rcfg := cfg
	rcfg.Executor = resumed
	_, resumedTbl, err := experiments.Figure5(rcfg, targets)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got, want := tableText(t, resumedTbl), tableText(t, localTbl); got != want {
		t.Errorf("mid-sweep resumed table differs from local:\n--- local ---\n%s--- resumed ---\n%s", want, got)
	}
	st := resumed.Stats()
	if want := uint64(len(entries) - 1); st.FromCache != want {
		t.Errorf("%d runs from cache, want the %d intact entries: %s", st.FromCache, want, st)
	}
	if cs := cache2.Stats(); cs.Corrupt != 1 {
		t.Errorf("restart cache: %s, want the torn entry dropped", cs)
	}
}

// TestCoordinatorCacheReplay: workers without a cache return every
// result through /complete alone, and the coordinator stores each one
// exactly once. A second identical sweep must then resolve entirely
// from the coordinator's cache without leasing a single run.
func TestCoordinatorCacheReplay(t *testing.T) {
	cfg, targets := testConfig()
	runs := uint64(len(targets) * cfg.Replications)
	cache, err := harness.NewRunCache(harness.CacheConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Grid: "fig5", Cache: cache, LeaseRuns: 2})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	stop := startWorkers(t, coord.Addr(), 2, nil)
	defer stop()

	dcfg := cfg
	dcfg.Executor = coord
	_, firstTbl, err := experiments.Figure5(dcfg, targets)
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	first := coord.Stats()
	if first.FromWorkers == 0 {
		t.Fatalf("first sweep should lease work: %s", first)
	}
	if cs := cache.Stats(); cs.Stores != runs || cs.DupPuts != 0 {
		t.Errorf("first sweep cache: %s, want %d stored and no duplicate puts", cs, runs)
	}

	_, secondTbl, err := experiments.Figure5(dcfg, targets)
	if err != nil {
		t.Fatalf("second sweep: %v", err)
	}
	second := coord.Stats()
	if got := second.FromWorkers - first.FromWorkers; got != 0 {
		t.Errorf("second sweep leased %d runs, want 0 (cache-resolved)", got)
	}
	if got := second.FromCache - first.FromCache; got != runs {
		t.Errorf("second sweep served %d from cache, want %d", got, runs)
	}
	if a, b := tableText(t, firstTbl), tableText(t, secondTbl); a != b {
		t.Errorf("cache replay differs:\n%s\nvs\n%s", a, b)
	}
	if cs := cache.Stats(); cs.FailedStores != 0 || strings.Contains(cs.String(), "stores failed") {
		t.Errorf("healthy coordinator cache reports failed stores: %s", cs)
	}
}

// TestCoordinatorCountsFailedStores: a coordinator whose cache cannot
// store worker results — its directory was removed — still resolves the
// sweep, and its cache's stats line says how many stores failed even
// without a Logf, since the cache is the sweep's only durable record.
func TestCoordinatorCountsFailedStores(t *testing.T) {
	cfg, targets := testConfig()
	runs := uint64(len(targets) * cfg.Replications)
	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := harness.NewRunCache(harness.CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Grid: "fig5", Cache: cache})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	stop := startWorkers(t, coord.Addr(), 1, nil)
	defer stop()

	dcfg := cfg
	dcfg.Executor = coord
	if _, _, err := experiments.Figure5(dcfg, targets); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if st := coord.Stats(); st.FromWorkers != runs {
		t.Fatalf("stats %+v, want %d runs from workers", st, runs)
	}
	cs := cache.Stats()
	if cs.Stores != 0 || cs.FailedStores != runs {
		t.Fatalf("cache stats %+v, want 0 stored and %d failed stores", cs, runs)
	}
	if want := fmt.Sprintf(", %d stores failed", runs); !strings.HasSuffix(cs.String(), want) {
		t.Fatalf("cache stats line %q does not end in %q", cs, want)
	}
}

// TestCoordinatorRefusesHookedRuns: a live tracer cannot travel in a
// lease, so a sweep carrying one fails before any lease is issued.
func TestCoordinatorRefusesHookedRuns(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Grid: "fig5"})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	runs := testRuns()
	runs[1].Hooks.Tracer = piconet.NewRingTracer(8)
	_, err = coord.Execute(runs, harness.Options{})
	if err == nil || !strings.Contains(err.Error(), "run 1") ||
		!strings.Contains(err.Error(), "carries runtime hooks, which cannot be leased") {
		t.Fatalf("Execute error %v, want run 1 refused for its hooks", err)
	}
	if st := coord.Stats(); st.Leases != 0 || st.Runs != 0 {
		t.Fatalf("stats %+v, want no lease and no run", st)
	}
}

// testRuns is testConfig's grid as a flat run list.
func testRuns() []harness.Run {
	cfg, targets := testConfig()
	return harness.Fig5Sweep(harness.SweepConfig{
		Duration: cfg.Duration, Seed: cfg.Seed, Replications: cfg.Replications,
	}, targets).Runs
}

// resultsText renders each run's report, so two result lists compare as
// text (gob bytes would not: maps encode in random order).
func resultsText(t *testing.T, results []harness.RunResult) string {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("run %d: %v", r.Run.Index, r.Err)
		}
		b.WriteString(r.Run.Cell + "\n")
		if err := r.Result.Report().WriteText(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// joinLogger returns a coordinator Logf that reports each worker's first
// /lease on the returned channel. The coordinator logs the join under
// the lock it then releases to hold the request, so once the test has
// seen the join, the request is held (or was answered).
func joinLogger(n int) (func(string, ...any), <-chan struct{}) {
	joined := make(chan struct{}, n)
	return func(format string, _ ...any) {
		if strings.HasSuffix(format, " joined") {
			joined <- struct{}{}
		}
	}, joined
}

// awaitJoin waits for one join report.
func awaitJoin(t *testing.T, joined <-chan struct{}) {
	t.Helper()
	select {
	case <-joined:
	case <-time.After(10 * time.Second):
		t.Fatal("no worker joined within 10s")
	}
}

// TestLeaseWakesOnSubmit: a worker that asked for work before any sweep
// existed is held on /lease and handed the runs the moment Execute
// submits them, not when the 10 s hold (the default lease TTL) runs out. The same holds at the
// boundary between two sweeps on one coordinator.
func TestLeaseWakesOnSubmit(t *testing.T) {
	runs := testRuns()
	local, err := harness.Execute(runs, harness.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := resultsText(t, local)

	logf, joined := joinLogger(1)
	coord, err := NewCoordinator(CoordinatorConfig{Grid: "fig5", LeaseRuns: 2, Logf: logf})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	stop := startWorkers(t, coord.Addr(), 1, nil)
	defer stop()
	awaitJoin(t, joined)

	for sweep := 1; sweep <= 2; sweep++ {
		start := time.Now()
		results, err := coord.Execute(runs, harness.Options{})
		if err != nil {
			t.Fatalf("sweep %d: %v", sweep, err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("sweep %d took %v; the held worker should be woken at submission", sweep, d)
		}
		if got := resultsText(t, results); got != want {
			t.Errorf("sweep %d results differ from harness.Execute:\n--- local ---\n%s--- fabric ---\n%s", sweep, want, got)
		}
	}
	if st := coord.Stats(); st.FromWorkers != uint64(2*len(runs)) {
		t.Errorf("expected all runs from the worker: %s", st)
	}
}

// TestLeaseWakesOnExpiry: one worker takes every run in a single lease
// and abandons it; a second worker is held on /lease meanwhile. When the
// lease expires, the re-queued runs go to the held worker at once, not
// when its hold runs out. The expiry is driven through expireLocked with
// a clock past the deadline — the step the expiry loop takes on its next
// tick — because a real TTL also caps the hold and would end it at about
// the same moment.
func TestLeaseWakesOnExpiry(t *testing.T) {
	runs := testRuns()
	logf, joined := joinLogger(2)
	coord, err := NewCoordinator(CoordinatorConfig{
		Grid: "fig5", LeaseRuns: len(runs), LeaseTTL: 10 * time.Second, Logf: logf,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()

	type outcome struct {
		results []harness.RunResult
		err     error
	}
	done := make(chan outcome, 1)
	crashed := make(chan error, 1)
	go func() {
		_, err := RunWorker(context.Background(), WorkerConfig{
			Coordinator: coord.Addr(), Name: "crasher", abandonNth: 1,
		})
		crashed <- err
	}()
	awaitJoin(t, joined)
	go func() {
		results, err := coord.Execute(runs, harness.Options{})
		done <- outcome{results, err}
	}()
	if err := <-crashed; err != nil { // the lease is taken and abandoned
		t.Fatalf("crasher: %v", err)
	}

	stop := startWorkers(t, coord.Addr(), 1, func(_ int, wc *WorkerConfig) { wc.Name = "held" })
	defer stop()
	awaitJoin(t, joined)

	start := time.Now()
	coord.mu.Lock()
	coord.expireLocked(coord.sweep, time.Now().Add(time.Hour))
	coord.mu.Unlock()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sweep not finished 10s after the expiry")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("re-queued runs took %v to finish; the held worker should be woken by the expiry", d)
	}
	local, err := harness.Execute(runs, harness.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultsText(t, out.results), resultsText(t, local); got != want {
		t.Errorf("results after expiry differ from harness.Execute:\n--- local ---\n%s--- fabric ---\n%s", want, got)
	}
	if st := coord.Stats(); st.Expired != 1 || st.Leases != 2 || st.FromWorkers != uint64(len(runs)) {
		t.Errorf("want 1 expired lease, 2 leases, %d runs from workers: %s", len(runs), st)
	}
}

// TestLeaseHold: with no sweep, a request is held for the hold
// (min(LeaseTTL, 10s)) and then answered "done".
func TestLeaseHold(t *testing.T) {
	const ttl = 300 * time.Millisecond
	coord, err := NewCoordinator(CoordinatorConfig{Grid: "fig5", LeaseTTL: ttl})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	start := time.Now()
	resp, err := http.Post("http://"+coord.Addr()+"/lease", "application/json", strings.NewReader(`{"worker":"held"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lr LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	d := time.Since(start)
	if lr.Status != StatusDone {
		t.Errorf("held request answered %q, want %q", lr.Status, StatusDone)
	}
	if d < ttl-20*time.Millisecond || d > ttl+time.Second {
		t.Errorf("held request answered after %v, want about %v", d, ttl)
	}
}

// TestWorkerPacesUnheldLease: against a coordinator that answers an
// idle /lease at once instead of holding it, the worker asks at most
// once per Poll rather than in a tight loop.
func TestWorkerPacesUnheldLease(t *testing.T) {
	var leases atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/info", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, InfoResponse{Grid: "fig5"})
	})
	mux.HandleFunc("/lease", func(w http.ResponseWriter, _ *http.Request) {
		leases.Add(1)
		writeJSON(w, LeaseResponse{Status: StatusDone})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	const poll, run = 50 * time.Millisecond, 500 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), run)
	defer cancel()
	if _, err := RunWorker(ctx, WorkerConfig{Coordinator: srv.URL, Name: "paced", Poll: poll}); err != nil {
		t.Fatal(err)
	}
	if n := leases.Load(); n < 2 || n > 2*int64(run/poll) {
		t.Errorf("%d /lease requests in %v at Poll %v, want about %d", n, run, poll, run/poll)
	}
}

// TestCloseReleasesHeldLease: Close answers a held /lease at once rather
// than letting the server's shutdown drain wait out the hold, and a
// second Close is harmless.
func TestCloseReleasesHeldLease(t *testing.T) {
	logf, joined := joinLogger(1)
	coord, err := NewCoordinator(CoordinatorConfig{Grid: "fig5", Logf: logf})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	stop := startWorkers(t, coord.Addr(), 1, nil)
	defer stop()
	awaitJoin(t, joined)

	start := time.Now()
	if err := coord.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v with a worker held on /lease", d)
	}
	coord.Close()
}
