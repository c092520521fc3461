package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bluegs/internal/harness"
)

func adaptiveCfg(t *testing.T) Config {
	t.Helper()
	return Config{
		Duration: 2 * time.Second,
		Seed:     1,
		CITarget: 0.1,
		MaxReps:  12,
	}
}

var adaptiveTargets = []time.Duration{30 * time.Millisecond, 38 * time.Millisecond, 46 * time.Millisecond}

// TestFigure5AdaptiveDeterministicAcrossWorkers is the satellite
// acceptance test: with the same tolerance, worker counts 1, 4 and
// GOMAXPROCS produce byte-identical per-cell replication counts and
// rendered tables.
func TestFigure5AdaptiveDeterministicAcrossWorkers(t *testing.T) {
	type snapshot struct {
		reps  []int
		table string
	}
	var base *snapshot
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := adaptiveCfg(t)
		cfg.Workers = workers
		rows, tbl, err := Figure5(cfg, adaptiveTargets)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := &snapshot{table: tbl.String()}
		for _, r := range rows {
			got.reps = append(got.reps, r.Reps)
		}
		if base == nil {
			base = got
			continue
		}
		if !reflect.DeepEqual(got.reps, base.reps) {
			t.Fatalf("workers=%d rep counts diverged: %v vs %v", workers, got.reps, base.reps)
		}
		if got.table != base.table {
			t.Fatalf("workers=%d table diverged:\n--- got ---\n%s--- want ---\n%s",
				workers, got.table, base.table)
		}
	}
}

// TestFigure5AdaptiveWarmCacheReproduces: a warmed cache replays the
// adaptive sweep with zero simulator executions and reproduces the
// cold-run output exactly.
func TestFigure5AdaptiveWarmCacheReproduces(t *testing.T) {
	cache, err := harness.NewRunCache(harness.CacheConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := adaptiveCfg(t)
	cfg.Cache = cache
	coldRows, coldTbl, err := Figure5(cfg, adaptiveTargets)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range coldRows {
		if r.CacheHits != 0 {
			t.Fatalf("cold run reported %d cache hits", r.CacheHits)
		}
	}
	warmRows, warmTbl, err := Figure5(cfg, adaptiveTargets)
	if err != nil {
		t.Fatal(err)
	}
	if warmTbl.String() != coldTbl.String() {
		t.Fatalf("warm table drifted:\n--- warm ---\n%s--- cold ---\n%s",
			warmTbl.String(), coldTbl.String())
	}
	for i, r := range warmRows {
		if r.CacheHits != r.Reps {
			t.Fatalf("target %v: %d of %d reps simulated despite a warm cache",
				r.Target, r.Reps-r.CacheHits, r.Reps)
		}
		if r.Reps != coldRows[i].Reps || r.Metric != coldRows[i].Metric {
			t.Fatalf("target %v outcome drifted", r.Target)
		}
	}
}

// TestFigure5AdaptiveConvergesAndReports: every point stops within the
// cap, and the table carries the reps and CI half-width columns.
func TestFigure5AdaptiveConvergesAndReports(t *testing.T) {
	cfg := adaptiveCfg(t)
	rows, tbl, err := Figure5(cfg, adaptiveTargets)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Converged {
			t.Fatalf("target %v did not converge within %d reps", r.Target, cfg.MaxReps)
		}
		if r.Reps < 3 || r.Reps > cfg.MaxReps {
			t.Fatalf("target %v used %d reps", r.Target, r.Reps)
		}
		if r.Metric.N != r.Reps {
			t.Fatalf("target %v metric summarises %d of %d reps", r.Target, r.Metric.N, r.Reps)
		}
	}
	for _, want := range []string{"reps", "ci_half", "adaptive reps"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, tbl.String())
		}
	}
}

// TestBaselinePollersAdaptive: the poller comparison supports the same
// adaptive mode with BE throughput as its natural metric.
func TestBaselinePollersAdaptive(t *testing.T) {
	cfg := adaptiveCfg(t)
	cfg.CITarget = 0.2
	rows, tbl, err := BaselinePollers(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 pollers", len(rows))
	}
	for _, r := range rows {
		if r.Reps < 3 || r.Reps > cfg.MaxReps {
			t.Fatalf("poller %s used %d reps", r.Poller, r.Reps)
		}
	}
	if !strings.Contains(tbl.String(), "reps") {
		t.Fatalf("table missing reps column:\n%s", tbl.String())
	}
}

// TestCrossExperimentCacheReuse: Figure5 and TableT3 share the 46 ms grid
// cell, so a shared cache lets T3 replay Figure5's runs without
// simulating.
func TestCrossExperimentCacheReuse(t *testing.T) {
	cache, err := harness.NewRunCache(harness.CacheConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Duration: 2 * time.Second, Seed: 1, Cache: cache}
	if _, _, err := Figure5(cfg, []time.Duration{46 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	if _, _, err := TableT3(cfg); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("T3 did not reuse Figure5's 46ms cell: %+v -> %+v", before, after)
	}
}

// TestConfigRejectsUnknownCIMetric: a bad metric name surfaces as an
// error instead of silently falling back.
func TestConfigRejectsUnknownCIMetric(t *testing.T) {
	cfg := adaptiveCfg(t)
	cfg.CIMetric = "bogus"
	if _, _, err := Figure5(cfg, adaptiveTargets); err == nil {
		t.Fatal("unknown CI metric accepted")
	}
}
