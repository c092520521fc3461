package harness_test

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"bluegs/internal/harness"
)

func adaptiveFixture() (harness.Grid, harness.SweepConfig, harness.AdaptiveOptions) {
	g := harness.Fig5Grid([]time.Duration{30 * time.Millisecond, 40 * time.Millisecond})
	cfg := harness.SweepConfig{Duration: 2 * time.Second, Seed: 1}
	opts := harness.AdaptiveOptions{
		Metric:  harness.BEThroughput,
		RelTol:  0.05,
		MaxReps: 16,
	}
	return g, cfg, opts
}

func TestExecuteAdaptiveConverges(t *testing.T) {
	g, cfg, opts := adaptiveFixture()
	outcomes, err := harness.ExecuteAdaptive(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 2 {
		t.Fatalf("outcomes = %d, want 2", len(outcomes))
	}
	for _, o := range outcomes {
		if !o.Converged {
			t.Fatalf("cell %s did not converge in %d reps (ci %v of mean %v)",
				o.Cell, o.Reps(), o.Metric.CI95, o.Metric.Mean)
		}
		if o.Reps() < 3 || o.Reps() > opts.MaxReps {
			t.Fatalf("cell %s used %d reps outside [3,%d]", o.Cell, o.Reps(), opts.MaxReps)
		}
		if o.Metric.N != o.Reps() {
			t.Fatalf("cell %s aggregated %d of %d reps", o.Cell, o.Metric.N, o.Reps())
		}
		if o.Metric.CI95 > opts.RelTol*o.Metric.Mean {
			t.Fatalf("cell %s claims convergence at half-width %v, mean %v",
				o.Cell, o.Metric.CI95, o.Metric.Mean)
		}
		for rep, r := range o.Runs {
			if r.Run.Rep != rep {
				t.Fatalf("cell %s rep order broken at %d", o.Cell, rep)
			}
			if r.Run.Spec.Seed != harness.ReplicationSeed(cfg.Seed, rep) {
				t.Fatalf("cell %s rep %d seed not derived deterministically", o.Cell, rep)
			}
		}
	}
}

// TestExecuteAdaptiveDeterministicAcrossWorkers: the satellite acceptance
// test — per-cell replication counts and metric summaries are
// bit-identical at every worker count.
func TestExecuteAdaptiveDeterministicAcrossWorkers(t *testing.T) {
	g, cfg, opts := adaptiveFixture()
	type snapshot struct {
		reps    []int
		metrics []float64
		runs    [][]string
	}
	var base *snapshot
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		opts.Workers = workers
		outcomes, err := harness.ExecuteAdaptive(g, cfg, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := &snapshot{}
		for _, o := range outcomes {
			got.reps = append(got.reps, o.Reps())
			got.metrics = append(got.metrics, o.Metric.Mean, o.Metric.CI95, o.Metric.Min, o.Metric.Max)
			got.runs = append(got.runs, fingerprint(t, o.Runs))
		}
		if base == nil {
			base = got
			continue
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d diverged:\n got %+v\nwant %+v", workers, got, base)
		}
	}
}

// TestExecuteAdaptiveWarmCache: replaying an adaptive sweep against a
// warmed cache executes zero simulator runs and reproduces every outcome
// exactly.
func TestExecuteAdaptiveWarmCache(t *testing.T) {
	g, cfg, opts := adaptiveFixture()
	cache, err := harness.NewRunCache(harness.CacheConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = cache
	cold, err := harness.ExecuteAdaptive(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := harness.ExecuteAdaptive(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range warm {
		if o.CacheHits != o.Reps() {
			t.Fatalf("cell %s: %d of %d reps simulated despite a warm cache",
				o.Cell, o.Reps()-o.CacheHits, o.Reps())
		}
		if o.Reps() != cold[i].Reps() || o.Metric != cold[i].Metric || o.Converged != cold[i].Converged {
			t.Fatalf("cell %s warm outcome drifted: %+v vs %+v", o.Cell, o.Metric, cold[i].Metric)
		}
		if got, want := fingerprint(t, o.Runs), fingerprint(t, cold[i].Runs); !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %s warm results drifted", o.Cell)
		}
	}
}

// TestExecuteAdaptiveRepCap: an unreachable tolerance stops at MaxReps
// with Converged=false. The GS delay metric is used because it genuinely
// varies across seeds (BE throughput can be zero-variance on short
// horizons, which would converge legitimately).
func TestExecuteAdaptiveRepCap(t *testing.T) {
	g, cfg, opts := adaptiveFixture()
	opts.Metric = harness.MeanGSDelay
	opts.RelTol = 1e-12
	opts.MaxReps = 5
	outcomes, err := harness.ExecuteAdaptive(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Converged {
			t.Fatalf("cell %s converged below an impossible tolerance", o.Cell)
		}
		if o.Reps() != 5 {
			t.Fatalf("cell %s ran %d reps, want the cap 5", o.Cell, o.Reps())
		}
	}
}

// TestExecuteAdaptiveConstantMetricConverges: a zero-variance metric (the
// violation fraction of a correct scheduler) stops at the minimum of 3 reps.
func TestExecuteAdaptiveConstantMetricConverges(t *testing.T) {
	g, cfg, opts := adaptiveFixture()
	opts.Metric = harness.ViolationFraction
	outcomes, err := harness.ExecuteAdaptive(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if !o.Converged || o.Reps() != 3 {
			t.Fatalf("cell %s: converged=%t after %d reps, want the minimum 3", o.Cell, o.Converged, o.Reps())
		}
		if o.Metric.Mean != 0 {
			t.Fatalf("cell %s violated bounds: %v", o.Cell, o.Metric.Mean)
		}
	}
}

func TestExecuteAdaptiveValidation(t *testing.T) {
	g, cfg, opts := adaptiveFixture()
	bad := opts
	bad.Metric = harness.Metric{}
	if _, err := harness.ExecuteAdaptive(g, cfg, bad); !errors.Is(err, harness.ErrNoMetric) {
		t.Fatalf("err = %v, want ErrNoMetric", err)
	}
	bad = opts
	bad.RelTol = 0
	if _, err := harness.ExecuteAdaptive(g, cfg, bad); !errors.Is(err, harness.ErrNoTolerance) {
		t.Fatalf("err = %v, want ErrNoTolerance", err)
	}
}

func TestMetricByName(t *testing.T) {
	for _, name := range []string{"gs-delay", "violations", "gs-kbps", "be-kbps"} {
		m, err := harness.MetricByName(name)
		if err != nil || m.Eval == nil {
			t.Fatalf("metric %q: %v", name, err)
		}
	}
	if _, err := harness.MetricByName("nope"); err == nil {
		t.Fatal("unknown metric accepted")
	}
}
