// Package fabric is the distributed sweep runner: a coordinator that
// partitions a harness sweep across worker processes (and machines) over
// a small HTTP protocol, backed by the content-addressed run cache.
//
// # Roles
//
// The Coordinator implements harness.Executor, so any code written
// against the harness — including every experiment table — runs
// distributed without change: `fig5 -addr` constructs a Coordinator and
// hands it to internal/experiments as the executor. The coordinator
// shards each sweep's runs into leases, serves them to workers, folds
// completed results back in run-index order, and stores every completion
// in its run cache (when it has one).
//
// A Worker (RunWorker, `fig5 -join addr` or any cmd embedding it) is a
// thin loop: lease runs, execute them through the ordinary local
// harness.Execute (with its worker pool and optional local RunCache),
// ship the results back, heartbeat while working. An idle /lease is held
// by the coordinator until work exists, so the worker asks again at
// once; it paces itself (WorkerConfig.Poll) only when a coordinator
// answers without holding.
//
// # Protocol
//
// JSON over HTTP, four endpoints:
//
//	GET  /info       → InfoResponse: sweep grid name, cache salt, lease
//	                   TTL.
//	POST /lease      → LeaseResponse: a Lease of up to LeaseRuns runs
//	                   (each carrying its scenario spec as v2 JSON), or
//	                   status "wait" (no work right now) / "done" (the
//	                   current sweep finished; more may follow). An
//	                   idle request is held up to min(LeaseTTL, 10s)
//	                   and answered the moment runs become leasable: a
//	                   sweep is submitted, a lease expires, or a
//	                   corrupt result is re-queued.
//	POST /complete   → worker returns a lease's results: per run the
//	                   content-address key, the encoded result entry
//	                   (flat record + CRC footer, the cache's own byte
//	                   format)
//	                   or an error string.
//	POST /heartbeat  → extends a lease's expiry while the worker is
//	                   still computing it.
//
// /complete is the only way a result reaches the coordinator.
//
// # Determinism
//
// A sweep run through the fabric is byte-identical to the single-process
// run at any worker count, by construction:
//
//   - Seeds derive from (baseSeed, rep) via harness.ReplicationSeed
//     before specs are marshaled into leases; the scenario v2 codec
//     round-trips specs fingerprint-identically, so a worker's
//     harness.CacheKey(salt, spec) equals the coordinator's (and the
//     coordinator rejects a /complete whose key disagrees).
//   - Results are content-addressed: whichever worker computes a run,
//     the bytes folded into the table are the decoded entry for that
//     one key, placed at the run's grid index.
//   - Adaptive replication schedules through
//     harness.ExecuteAdaptiveWith — the same loop as in-process, with
//     the coordinator's lease-based Execute as the batch executor — so
//     batch composition and per-cell rep counts are pure functions of
//     results, never of worker count or scheduling.
//
// # Fault tolerance
//
// A worker that dies mid-lease simply stops heartbeating: the lease
// expires and its unresolved runs return to the ready queue for the next
// /lease (late /completes from a slow-but-alive worker still land if the
// run is still pending; anything else is a counted no-op — keys make
// duplicates harmless). A coordinator that dies is restarted over the
// same cache directory: every stored run resolves from the cache before
// any leasing, and only the remainder is leased out again. An entry is
// synced to disk before it becomes visible under its key, and one torn
// by a crash fails its CRC footer and re-runs; a run that failed is
// never stored, so it re-runs too.
package fabric

import (
	"encoding/json"
	"fmt"
	"time"
)

// InfoResponse describes the coordinator to a joining worker.
type InfoResponse struct {
	// Grid names the sweep the coordinator is serving (informational).
	Grid string `json:"grid"`
	// Salt is the coordinator cache's code-version salt. A worker whose
	// own salt differs refuses the coordinator before its first lease.
	Salt string `json:"salt"`
	// LeaseTTL is the heartbeat deadline: a lease not heartbeated for
	// this long is re-issued.
	LeaseTTL time.Duration `json:"lease_ttl"`
}

// LeaseRequest identifies the asking worker.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Lease statuses.
const (
	// StatusLease: the response carries work.
	StatusLease = "lease"
	// StatusWait: a sweep is active but every run is leased out, and
	// the request's hold ran out — ask again; the next request is held
	// too.
	StatusWait = "wait"
	// StatusDone: no sweep is active and the request's hold ran out.
	// More sweeps may follow (a report renders many tables); workers ask
	// again and exit when the coordinator goes away.
	StatusDone = "done"
)

// LeaseResponse answers /lease.
type LeaseResponse struct {
	Status string `json:"status"`
	Lease  *Lease `json:"lease,omitempty"`
}

// Lease is a batch of runs assigned to one worker until TTL expires
// (heartbeats extend it).
type Lease struct {
	ID   string        `json:"id"`
	TTL  time.Duration `json:"ttl"`
	Runs []LeaseRun    `json:"runs"`
}

// LeaseRun is one run of a lease: its position in the coordinator's
// current sweep and the complete scenario, marshaled with the v2 codec.
// The cache key is a hash of that same codec's normalized JSON, so the
// worker derives the identical key from the decoded spec — no grid
// registry needed on the worker side.
type LeaseRun struct {
	Index int             `json:"index"`
	Cell  string          `json:"cell"`
	Rep   int             `json:"rep"`
	Spec  json.RawMessage `json:"spec"`
}

// CompleteRequest returns a lease's results.
type CompleteRequest struct {
	Lease  string         `json:"lease"`
	Worker string         `json:"worker"`
	Runs   []CompletedRun `json:"runs"`
}

// CompletedRun is one finished run: the content-address key the worker
// derived and either the encoded result entry (harness.EncodeResultEntry
// bytes: flat record payload + CRC footer — the cache's own on-disk
// format, so the coordinator verifies and stores it unchanged) or the
// run's error.
type CompletedRun struct {
	Index int    `json:"index"`
	Cell  string `json:"cell"`
	Rep   int    `json:"rep"`
	Key   string `json:"key"`
	// Entry is empty when Err is set. encoding/json transports it as
	// base64.
	Entry []byte `json:"entry,omitempty"`
	Err   string `json:"err,omitempty"`
	// CacheHit reports the worker served the run from its own cache.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// HeartbeatRequest extends a lease.
type HeartbeatRequest struct {
	Lease  string `json:"lease"`
	Worker string `json:"worker"`
}

// CoordinatorStats counts how the coordinator resolved runs, accumulated
// across every sweep it served. The String rendering is the one line
// `fig5 -addr` prints on exit (and the CI fabric smoke greps).
type CoordinatorStats struct {
	// Runs counts every run resolved.
	Runs uint64
	// FromCache counts runs served by the coordinator's own cache, and
	// FromWorkers those computed by (or served from the local cache of)
	// a worker.
	FromCache   uint64
	FromWorkers uint64
	// Leases counts leases issued; Expired those that timed out and were
	// re-queued; LateCompletes results accepted after their lease
	// expired; DupCompletes results for runs already resolved (a clean
	// no-op).
	Leases        uint64
	Expired       uint64
	LateCompletes uint64
	DupCompletes  uint64
}

// String renders the counters: "N runs: C from cache, W from workers (L
// leases, E expired, D duplicate completes)". The counts after the
// leases appear only when non-zero, keeping the healthy line byte-stable
// for log greps. A worker result the coordinator's cache fails to store
// is counted by the cache (harness.CacheStats.FailedStores).
func (s CoordinatorStats) String() string {
	out := fmt.Sprintf("%d runs: %d from cache, %d from workers (%d leases",
		s.Runs, s.FromCache, s.FromWorkers, s.Leases)
	if s.Expired > 0 {
		out += fmt.Sprintf(", %d expired", s.Expired)
	}
	if s.LateCompletes > 0 {
		out += fmt.Sprintf(", %d late completes", s.LateCompletes)
	}
	if s.DupCompletes > 0 {
		out += fmt.Sprintf(", %d duplicate completes", s.DupCompletes)
	}
	return out + ")"
}

// WorkerStats counts a worker's contribution.
type WorkerStats struct {
	// Leases counts leases executed, Runs the runs completed under them,
	// CacheHits the subset served from the worker's cache.
	Leases    uint64
	Runs      uint64
	CacheHits uint64
}

// String renders the counters as "N runs under L leases (H cache hits)".
func (s WorkerStats) String() string {
	return fmt.Sprintf("%d runs under %d leases (%d cache hits)", s.Runs, s.Leases, s.CacheHits)
}
