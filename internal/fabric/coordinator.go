package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"bluegs/internal/harness"
	"bluegs/internal/scenario"
)

// CoordinatorConfig tunes a Coordinator.
type CoordinatorConfig struct {
	// Addr is the listen address (default "127.0.0.1:0" — loopback on a
	// free port; use ":port" to accept workers from other machines).
	Addr string
	// Grid names the sweep in /info.
	Grid string
	// Cache, when set, resolves runs the coordinator already holds
	// without leasing them and stores every worker result. Workers
	// derive keys under harness.DefaultCacheSalt, which /info announces.
	// A disk cache is the sweep's durable record: a coordinator
	// restarted over the same directory resolves every stored run from
	// it and leases only the remainder.
	Cache *harness.RunCache
	// LeaseTTL is the heartbeat deadline before a lease's unresolved
	// runs are re-queued (default 10s). An idle /lease is held for
	// min(LeaseTTL, maxHold).
	LeaseTTL time.Duration
	// LeaseRuns caps the runs handed out per lease (default 4). Small
	// leases spread a grid across more workers; large ones amortize
	// round trips.
	LeaseRuns int
	// Logf, when set, receives operational events (worker joins, lease
	// expiries, failed stores).
	Logf func(format string, args ...any)
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.LeaseRuns <= 0 {
		c.LeaseRuns = 4
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Coordinator serves a sweep to workers over HTTP and implements
// harness.Executor, so experiment code runs distributed unchanged. One
// coordinator serves many sweeps in sequence (a report is a dozen
// Execute calls); workers wait across sweep boundaries on a held /lease.
type Coordinator struct {
	cfg CoordinatorConfig
	ln  net.Listener
	srv *http.Server

	// closing is closed once by Close, releasing every held /lease.
	closing   chan struct{}
	closeOnce sync.Once

	mu       sync.Mutex
	sweep    *sweepState
	leaseSeq uint64
	stats    CoordinatorStats
	workers  map[string]bool
	// wake is closed and replaced (wakeLocked) whenever runs become
	// leasable; held /lease requests wait on it.
	wake chan struct{}
}

// sweepState is one Execute call's book-keeping.
type sweepState struct {
	runs     []harness.Run
	specJSON [][]byte
	keys     []string
	results  []harness.RunResult
	resolved []bool
	byKey    map[string][]int
	ready    []int // FIFO of indexes available for leasing
	leases   map[string]*activeLease
	pending  int
	doneRuns int
	opts     harness.Options
	done     chan struct{}
}

type activeLease struct {
	id      string
	worker  string
	runs    []int
	expires time.Time
}

// NewCoordinator starts listening and serving immediately; the sweep
// content arrives with the first Execute call (workers asking before
// that are held, and see StatusDone if their hold runs out first).
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		workers: make(map[string]bool),
		wake:    make(chan struct{}),
		closing: make(chan struct{}),
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: listen %s: %w", cfg.Addr, err)
	}
	c.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/info", c.handleInfo)
	mux.HandleFunc("/lease", c.handleLease)
	mux.HandleFunc("/complete", c.handleComplete)
	mux.HandleFunc("/heartbeat", c.handleHeartbeat)
	c.srv = &http.Server{Handler: mux}
	go c.srv.Serve(ln)
	return c, nil
}

// Addr returns the coordinator's listen address ("host:port").
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Stats returns the accumulated resolution counters.
func (c *Coordinator) Stats() CoordinatorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close stops serving. Safe after (not during) a sweep: in-flight
// Execute calls should be interrupted first. Held /lease requests are
// answered at once; other in-flight requests get a short drain —
// severing a worker's /complete response after its results were folded
// in would make the worker retry and log a spurious failure.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() { close(c.closing) })
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := c.srv.Shutdown(ctx); err != nil {
		return c.srv.Close()
	}
	return nil
}

// Execute implements harness.Executor: resolve what the cache already
// holds, lease the remainder to workers, and return results in
// run-index order — the same contract, and therefore the same bytes, as
// the in-process harness.Execute.
func (c *Coordinator) Execute(runs []harness.Run, opts harness.Options) ([]harness.RunResult, error) {
	results := make([]harness.RunResult, len(runs))
	if len(runs) == 0 {
		return results, nil
	}
	st := &sweepState{
		runs:     runs,
		specJSON: make([][]byte, len(runs)),
		keys:     make([]string, len(runs)),
		results:  results,
		resolved: make([]bool, len(runs)),
		byKey:    make(map[string][]int),
		leases:   make(map[string]*activeLease),
		opts:     opts,
		done:     make(chan struct{}),
	}

	// Hooked runs carry live tracers or radio instances — they cannot be
	// serialized into a lease, so they execute in-process, exactly as a
	// local sweep would run them.
	var hooked []int
	for i, run := range runs {
		if !run.Hooks.Zero() {
			hooked = append(hooked, i)
			continue
		}
		data, err := scenario.Marshal(run.Spec)
		if err != nil {
			return results, fmt.Errorf("fabric: marshal run %d (cell %q rep %d): %w", run.Index, run.Cell, run.Rep, err)
		}
		st.specJSON[i] = data
		st.keys[i] = harness.CacheKey(harness.DefaultCacheSalt, run.Spec)
		st.byKey[st.keys[i]] = append(st.byKey[st.keys[i]], i)
	}
	if len(hooked) > 0 {
		local := make([]harness.Run, len(hooked))
		for k, i := range hooked {
			local[k] = runs[i]
		}
		localOpts := opts
		localOpts.OnProgress = nil // folded into the sweep-wide count below
		localResults, _ := harness.Execute(local, localOpts)
		for k, i := range hooked {
			results[i] = localResults[k]
		}
	}

	// Resolve the rest from the coordinator's own cache; what's left is
	// leased out.
	c.mu.Lock()
	for i := range runs {
		if runs[i].Hooks.Zero() {
			c.prefillLocked(st, i)
		} else {
			st.resolved[i] = true
			st.doneRuns++
			c.stats.Runs++
			if opts.OnProgress != nil {
				opts.OnProgress(st.doneRuns, len(st.runs), results[i])
			}
		}
	}
	interrupted := false
	pending := st.pending
	if pending == 0 {
		close(st.done)
	} else {
		c.sweep = st
		c.wakeLocked()
	}
	c.mu.Unlock()

	if pending > 0 {
		stop := make(chan struct{})
		go c.expiryLoop(stop)
		select {
		case <-st.done:
		case <-opts.Interrupt:
			interrupted = true
		}
		close(stop)
		c.mu.Lock()
		c.sweep = nil
		if interrupted {
			for i := range runs {
				if runs[i].Hooks.Zero() && !st.resolved[i] {
					results[i] = harness.RunResult{Run: runs[i], Err: harness.ErrInterrupted}
				}
			}
		}
		c.mu.Unlock()
	}

	if interrupted {
		return results, harness.ErrInterrupted
	}
	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("harness: run %d (cell %q rep %d): %w",
				runs[i].Index, runs[i].Cell, runs[i].Rep, results[i].Err)
		}
	}
	return results, nil
}

// ExecuteAdaptive implements harness.Executor by running the harness's
// own adaptive scheduling loop over the coordinator's lease-based
// Execute: batch composition and per-cell replication counts are the
// same code path as in-process, so adaptive tables stay byte-identical
// at any worker count. Each round's batch for an unconverged cell is
// ordinary leasable work — that is the work-stealing rule for hot cells.
func (c *Coordinator) ExecuteAdaptive(g harness.Grid, cfg harness.SweepConfig, opts harness.AdaptiveOptions) ([]harness.CellOutcome, error) {
	return harness.ExecuteAdaptiveWith(c.Execute, g, cfg, opts)
}

// prefillLocked resolves run i from the cache when possible, otherwise
// queues it for leasing.
func (c *Coordinator) prefillLocked(st *sweepState, i int) {
	if c.cfg.Cache != nil {
		if res, ok := c.cfg.Cache.Get(st.runs[i].Spec); ok {
			rr := harness.RunResult{Run: st.runs[i], Result: res, CacheHit: true}
			c.resolveLocked(st, i, rr, &c.stats.FromCache)
			return
		}
	}
	st.pending++
	st.ready = append(st.ready, i)
}

// resolveLocked places run i's result, books it, and signals sweep
// completion.
func (c *Coordinator) resolveLocked(st *sweepState, i int, rr harness.RunResult, source *uint64) {
	st.results[i] = rr
	st.resolved[i] = true
	st.doneRuns++
	c.stats.Runs++
	*source++
	if st.opts.OnProgress != nil {
		st.opts.OnProgress(st.doneRuns, len(st.runs), rr)
	}
	if source == &c.stats.FromWorkers {
		st.pending--
		if st.pending == 0 {
			close(st.done)
		}
	}
}

// expiryLoop re-queues expired leases while a sweep is live.
func (c *Coordinator) expiryLoop(stop <-chan struct{}) {
	t := time.NewTicker(c.cfg.LeaseTTL / 2)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.mu.Lock()
			if c.sweep != nil {
				c.expireLocked(c.sweep, time.Now())
			}
			c.mu.Unlock()
		case <-stop:
			return
		}
	}
}

// wakeLocked releases every held /lease to look for work again.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// expireLocked returns every expired lease's unresolved runs to the
// ready queue.
func (c *Coordinator) expireLocked(st *sweepState, now time.Time) {
	for id, l := range st.leases {
		if now.Before(l.expires) {
			continue
		}
		requeued := 0
		for _, i := range l.runs {
			if !st.resolved[i] {
				st.ready = append(st.ready, i)
				requeued++
			}
		}
		delete(st.leases, id)
		c.stats.Expired++
		c.cfg.Logf("fabric: lease %s (worker %s) expired, re-queued %d runs", id, l.worker, requeued)
		if requeued > 0 {
			c.wakeLocked()
		}
	}
}

// --- HTTP handlers ---

func (c *Coordinator) handleInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, InfoResponse{
		Grid:     c.cfg.Grid,
		Salt:     harness.DefaultCacheSalt,
		LeaseTTL: c.cfg.LeaseTTL,
	})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	if !c.workers[req.Worker] {
		c.workers[req.Worker] = true
		c.cfg.Logf("fabric: worker %s joined", req.Worker)
	}
	resp := c.leaseLocked(req.Worker)
	if resp.Status != StatusLease {
		resp = c.holdLocked(r.Context(), req.Worker, min(c.cfg.LeaseTTL, maxHold))
	}
	c.mu.Unlock()
	writeJSON(w, resp)
}

// maxHold caps how long an idle /lease is held. It stays well under the
// worker's HTTP client timeout (clientTimeout).
const maxHold = 10 * time.Second

// holdLocked holds an idle /lease: it waits, with c.mu released, for a
// wake and looks for work again, until it can pop a lease or the hold
// runs out (the answer is then StatusWait or StatusDone). A closing coordinator or a hung-up worker ends the
// hold with StatusDone and pops nothing. c.mu is held on return.
func (c *Coordinator) holdLocked(ctx context.Context, worker string, hold time.Duration) LeaseResponse {
	t := time.NewTimer(hold)
	defer t.Stop()
	for {
		wake := c.wake
		c.mu.Unlock()
		last := false
		select {
		case <-wake:
		case <-t.C:
			last = true
		case <-c.closing:
			c.mu.Lock()
			return LeaseResponse{Status: StatusDone}
		case <-ctx.Done():
			c.mu.Lock()
			return LeaseResponse{Status: StatusDone}
		}
		c.mu.Lock()
		if resp := c.leaseLocked(worker); resp.Status == StatusLease || last {
			return resp
		}
	}
}

// leaseLocked pops up to LeaseRuns ready runs into a new lease for
// worker, or answers StatusWait (a sweep is live but nothing is ready)
// or StatusDone (no sweep).
func (c *Coordinator) leaseLocked(worker string) LeaseResponse {
	st := c.sweep
	if st == nil {
		return LeaseResponse{Status: StatusDone}
	}
	c.expireLocked(st, time.Now())
	// Pop up to LeaseRuns indexes, skipping any that a late complete
	// resolved while they sat in the queue.
	var idxs []int
	for len(idxs) < c.cfg.LeaseRuns && len(st.ready) > 0 {
		i := st.ready[0]
		st.ready = st.ready[1:]
		if !st.resolved[i] {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return LeaseResponse{Status: StatusWait}
	}
	c.leaseSeq++
	l := &activeLease{
		id:      fmt.Sprintf("L%d", c.leaseSeq),
		worker:  worker,
		runs:    idxs,
		expires: time.Now().Add(c.cfg.LeaseTTL),
	}
	st.leases[l.id] = l
	c.stats.Leases++
	lease := &Lease{ID: l.id, TTL: c.cfg.LeaseTTL}
	for _, i := range idxs {
		lease.Runs = append(lease.Runs, LeaseRun{
			Index: i,
			Cell:  st.runs[i].Cell,
			Rep:   st.runs[i].Rep,
			Spec:  json.RawMessage(st.specJSON[i]),
		})
	}
	return LeaseResponse{Status: StatusLease, Lease: lease}
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.sweep
	if st == nil {
		// A straggler finishing a lease from an already-completed sweep.
		c.stats.DupCompletes += uint64(len(req.Runs))
		writeJSON(w, map[string]bool{"ok": true})
		return
	}
	l, leased := st.leases[req.Lease]
	for _, cr := range req.Runs {
		idx := -1
		if leased && cr.Index >= 0 && cr.Index < len(st.runs) && !st.resolved[cr.Index] {
			if st.keys[cr.Index] != cr.Key {
				// The worker derived a different content address for the
				// spec we sent: codec or salt drift. Resolving the run
				// with a loud error fails the sweep immediately instead
				// of re-leasing forever.
				c.resolveLocked(st, cr.Index, harness.RunResult{
					Run: st.runs[cr.Index],
					Err: fmt.Errorf("fabric: worker %s derived key %s for run %d, coordinator expected %s (codec drift?)",
						req.Worker, cr.Key, cr.Index, st.keys[cr.Index]),
				}, &c.stats.FromWorkers)
				continue
			}
			idx = cr.Index
		} else {
			// Late complete (expired lease, or a run re-leased and
			// resolved elsewhere): accept by key if still pending.
			for _, i := range st.byKey[cr.Key] {
				if !st.resolved[i] {
					idx = i
					break
				}
			}
			if idx >= 0 {
				c.stats.LateCompletes++
			}
		}
		if idx < 0 {
			c.stats.DupCompletes++
			continue
		}
		rr := harness.RunResult{Run: st.runs[idx], CacheHit: cr.CacheHit}
		if cr.Err != "" {
			rr.Err = errors.New(cr.Err)
		} else {
			res, err := harness.DecodeResultEntry(cr.Key, cr.Entry, st.runs[idx].Spec)
			if err != nil {
				// A corrupt wire entry: leave the run pending for
				// re-leasing rather than poisoning the sweep.
				c.cfg.Logf("fabric: corrupt entry from worker %s for %s: %v", req.Worker, cr.Key[:12], err)
				st.ready = append(st.ready, idx)
				c.wakeLocked()
				continue
			}
			rr.Result = res
			if c.cfg.Cache != nil {
				// Store the footer-verified bytes as they arrived. On
				// failure (counted by the cache) the sweep still
				// resolves; the run just re-executes after a restart.
				if err := c.cfg.Cache.PutEntry(cr.Key, cr.Entry); err != nil {
					c.cfg.Logf("fabric: store %s: %v", cr.Key[:12], err)
				}
			}
		}
		c.resolveLocked(st, idx, rr, &c.stats.FromWorkers)
	}
	if leased {
		delete(st.leases, l.id)
	}
	writeJSON(w, map[string]bool{"ok": true})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.sweep; st != nil {
		if l, ok := st.leases[req.Lease]; ok {
			l.expires = time.Now().Add(c.cfg.LeaseTTL)
			writeJSON(w, map[string]bool{"ok": true})
			return
		}
	}
	c.cfg.Logf("fabric: heartbeat %s (worker %s): unknown lease", req.Lease, req.Worker)
	// Unknown lease: expired (its runs are re-queued) or from a finished
	// sweep. The worker should finish and /complete anyway — a late
	// complete still lands if the run is pending.
	w.WriteHeader(http.StatusGone)
	writeJSON(w, map[string]bool{"ok": false})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
