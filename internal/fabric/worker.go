package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"bluegs/internal/harness"
	"bluegs/internal/scenario"
)

// WorkerConfig tunes RunWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's address ("host:port", or a full
	// http:// URL).
	Coordinator string
	// Name identifies the worker in leases and logs (default
	// "hostname-pid").
	Name string
	// Workers bounds the local simulation pool per lease (<= 0 means
	// GOMAXPROCS), exactly as harness.Options.Workers.
	Workers int
	// Cache, when set, is the worker's local run cache (e.g. a shared
	// -cache-dir). Its salt must match the coordinator's, or keys would
	// disagree.
	Cache *harness.RunCache
	// Poll is the shortest interval between two idle /lease requests
	// (default 300ms). The coordinator holds an idle request until work
	// exists or its hold (min(LeaseTTL, 10s)) ends, so after a held
	// request the worker asks again at once; Poll only paces a
	// coordinator that answers without holding.
	Poll time.Duration
	// Logf, when set, receives operational events.
	Logf func(format string, args ...any)

	// abandonNth, when > 0, makes the worker exit without executing or
	// completing its nth lease — the crash-mid-lease the recovery tests
	// inject.
	abandonNth int
}

// clientTimeout bounds every worker request, held /lease requests
// included (the coordinator holds one at most maxHold).
const clientTimeout = 30 * time.Second

// RunWorker joins a coordinator and processes leases until the context
// is cancelled or the coordinator goes away (which, after a successful
// first contact, is a clean exit — the sweep is over).
func RunWorker(ctx context.Context, cfg WorkerConfig) (WorkerStats, error) {
	var stats WorkerStats
	if cfg.Name == "" {
		host, _ := os.Hostname()
		cfg.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 300 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	base := cfg.Coordinator
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")
	client := &http.Client{Timeout: clientTimeout}

	info, err := fetchInfo(ctx, client, base)
	if err != nil {
		return stats, err
	}
	if cfg.Cache != nil && cfg.Cache.Salt() != info.Salt {
		return stats, fmt.Errorf("fabric: worker cache salt %q differs from coordinator salt %q", cfg.Cache.Salt(), info.Salt)
	}
	cfg.Logf("fabric: worker %s joined %s (grid %q, salt %s)", cfg.Name, base, info.Grid, info.Salt)

	leased := 0
	for {
		select {
		case <-ctx.Done():
			return stats, nil
		default:
		}
		var resp LeaseResponse
		sent := time.Now()
		if err := postJSON(ctx, client, base+"/lease", LeaseRequest{Worker: cfg.Name}, &resp); err != nil {
			if ctx.Err() != nil {
				return stats, nil
			}
			// The coordinator answered /info once, so an unreachable
			// coordinator now means the sweep driver exited: done.
			cfg.Logf("fabric: worker %s: coordinator gone (%v), exiting", cfg.Name, err)
			return stats, nil
		}
		switch resp.Status {
		case StatusLease:
			leased++
			if cfg.abandonNth > 0 && leased >= cfg.abandonNth {
				cfg.Logf("fabric: worker %s abandoning lease %s (injected crash)", cfg.Name, resp.Lease.ID)
				return stats, nil
			}
			executeLease(ctx, client, base, cfg, info, resp.Lease, &stats)
		case StatusWait, StatusDone:
			// After a hold this sleeps nothing; it keeps a coordinator
			// that answers at once (an older one, or one closing) from
			// being asked in a tight loop.
			if !sleepCtx(ctx, cfg.Poll-time.Since(sent)) {
				return stats, nil
			}
		default:
			return stats, fmt.Errorf("fabric: unknown lease status %q", resp.Status)
		}
	}
}

// executeLease runs one lease through the local harness (heartbeating
// while it computes) and returns the results to the coordinator.
func executeLease(ctx context.Context, client *http.Client, base string, cfg WorkerConfig,
	info InfoResponse, lease *Lease, stats *WorkerStats) {
	runs := make([]harness.Run, len(lease.Runs))
	bad := make([]string, len(lease.Runs)) // per-run unmarshal failure
	for k, lr := range lease.Runs {
		spec, err := scenario.Unmarshal(lr.Spec)
		if err != nil {
			bad[k] = fmt.Sprintf("fabric: worker unmarshal spec: %v", err)
			continue
		}
		runs[k] = harness.Run{Index: lr.Index, Cell: lr.Cell, Rep: lr.Rep, Spec: spec}
	}

	// Heartbeat at a third of the TTL while the lease computes — and while
	// the results upload: a /complete carrying large entries can outlast
	// the TTL on its own, and an expiry mid-upload would force the runs
	// through a redundant re-lease.
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		interval := info.LeaseTTL / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				if err := postJSON(ctx, client, base+"/heartbeat", HeartbeatRequest{Lease: lease.ID, Worker: cfg.Name}, nil); err != nil {
					cfg.Logf("fabric: worker %s: heartbeat %s: %v", cfg.Name, lease.ID, err)
				}
			}
		}
	}()

	var interrupt chan struct{}
	if ctx.Done() != nil {
		interrupt = make(chan struct{})
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-ctx.Done():
				close(interrupt)
			case <-done:
			}
		}()
	}
	results, _ := harness.Execute(runs, harness.Options{
		Workers:   cfg.Workers,
		Cache:     cfg.Cache,
		Interrupt: interrupt,
	})

	req := CompleteRequest{Lease: lease.ID, Worker: cfg.Name}
	for k, rr := range results {
		cr := CompletedRun{
			Index:    lease.Runs[k].Index,
			Cell:     lease.Runs[k].Cell,
			Rep:      lease.Runs[k].Rep,
			CacheHit: rr.CacheHit,
		}
		switch {
		case bad[k] != "":
			cr.Err = bad[k]
		case rr.Err != nil:
			cr.Key = harness.CacheKey(info.Salt, runs[k].Spec)
			cr.Err = rr.Err.Error()
		default:
			cr.Key = harness.CacheKey(info.Salt, runs[k].Spec)
			entry, err := harness.EncodeResultEntry(cr.Key, rr.Result)
			if err != nil {
				cr.Err = err.Error()
			} else {
				cr.Entry = entry
			}
		}
		if bad[k] == "" && errors.Is(rr.Err, harness.ErrInterrupted) {
			// An interrupted run is not a completion: leave it out so
			// the coordinator re-leases it after the TTL. (Unmarshal
			// failures do report — they would fail identically anywhere.)
			continue
		}
		req.Runs = append(req.Runs, cr)
		stats.Runs++
		if rr.CacheHit {
			stats.CacheHits++
		}
	}
	stats.Leases++

	// A failed complete is not fatal: the lease expires and re-leases.
	for attempt := 0; attempt < 3; attempt++ {
		if err := postJSON(ctx, client, base+"/complete", req, nil); err == nil {
			return
		} else if attempt == 2 || !sleepCtx(ctx, 200*time.Millisecond) {
			cfg.Logf("fabric: worker %s: complete %s failed: %v", cfg.Name, lease.ID, err)
			return
		}
	}
}

// fetchInfo retries /info briefly: workers routinely start before the
// coordinator finishes binding its port.
func fetchInfo(ctx context.Context, client *http.Client, base string) (InfoResponse, error) {
	var info InfoResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := getJSON(ctx, client, base+"/info", &info)
		if err == nil {
			return info, nil
		}
		if ctx.Err() != nil {
			return info, ctx.Err()
		}
		if time.Now().After(deadline) {
			return info, fmt.Errorf("fabric: coordinator %s unreachable: %w", base, err)
		}
		if !sleepCtx(ctx, 200*time.Millisecond) {
			return info, ctx.Err()
		}
	}
}

// sleepCtx waits d, or less if ctx ends first; it reports whether the
// full wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("fabric: GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func postJSON(ctx context.Context, client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("fabric: POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
