package harness_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bluegs/internal/harness"
	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
)

// shortSweep is a small but non-trivial grid: two Fig. 5 cells, two
// replications each.
func shortSweep(t *testing.T) harness.Sweep {
	t.Helper()
	cfg := harness.SweepConfig{Duration: 2 * time.Second, Seed: 1, Replications: 2}
	sw := harness.Fig5Sweep(cfg, []time.Duration{30 * time.Millisecond, 40 * time.Millisecond})
	if len(sw.Runs) != 4 {
		t.Fatalf("runs = %d, want 4", len(sw.Runs))
	}
	return sw
}

// fingerprint reduces a result set to comparable strings: per-run flow
// throughputs, exact delay maxima and per-slave kbps.
func fingerprint(t *testing.T, results []harness.RunResult) []string {
	t.Helper()
	out := make([]string, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("run %d failed: %v", i, r.Err)
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "cell=%s rep=%d seed=%d", r.Run.Cell, r.Run.Rep, r.Run.Spec.Seed)
		for _, f := range r.Result.Flows {
			fmt.Fprintf(&sb, " f%d=%.9f/%d", f.ID, f.Kbps, f.DelayMax)
		}
		for s := piconet.SlaveID(1); s <= 7; s++ {
			fmt.Fprintf(&sb, " s%d=%.9f", s, r.Result.SlaveKbps[s])
		}
		out[i] = sb.String()
	}
	return out
}

// TestExecuteDeterministicAcrossWorkers is the harness's core guarantee:
// the same sweep yields bit-identical results at every worker count.
func TestExecuteDeterministicAcrossWorkers(t *testing.T) {
	sw := shortSweep(t)
	var want []string
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		results, err := harness.Execute(sw.Runs, harness.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := fingerprint(t, results)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged:\n got %v\nwant %v", workers, got, want)
		}
	}
}

func TestReplicationSeed(t *testing.T) {
	if got := harness.ReplicationSeed(7, 0); got != 7 {
		t.Fatalf("rep 0 seed = %d, want the base seed", got)
	}
	seen := map[int64]bool{}
	for rep := 0; rep < 100; rep++ {
		s := harness.ReplicationSeed(7, rep)
		if s == 0 {
			t.Fatalf("rep %d derived the reserved seed 0", rep)
		}
		if seen[s] {
			t.Fatalf("rep %d repeated seed %d", rep, s)
		}
		seen[s] = true
		if s != harness.ReplicationSeed(7, rep) {
			t.Fatalf("rep %d seed not deterministic", rep)
		}
	}
	if harness.ReplicationSeed(7, 1) == harness.ReplicationSeed(8, 1) {
		t.Fatal("different base seeds collided at rep 1")
	}
}

func TestExecuteProgress(t *testing.T) {
	sw := shortSweep(t)
	var dones []int
	total := 0
	results, err := harness.Execute(sw.Runs, harness.Options{
		Workers: 4,
		OnProgress: func(done, n int, r harness.RunResult) {
			dones = append(dones, done)
			total = n
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != len(sw.Runs) || len(dones) != len(sw.Runs) {
		t.Fatalf("progress calls = %d (total %d), want %d", len(dones), total, len(sw.Runs))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("done sequence %v not monotone", dones)
		}
	}
	for _, r := range results {
		if r.Wall <= 0 {
			t.Fatal("missing wall-clock measurement")
		}
	}
}

// TestExecuteErrorDeterministic: the reported error is the first failing
// run in grid order, not completion order.
func TestExecuteErrorDeterministic(t *testing.T) {
	good := scenario.Paper(40 * time.Millisecond)
	good.Duration = time.Second
	var runs []harness.Run
	for i := 0; i < 6; i++ {
		spec := good
		cell := fmt.Sprintf("cell%d", i)
		if i == 2 || i == 4 {
			spec = scenario.Spec{Name: "empty"} // no flows: scenario.Run fails
		}
		runs = append(runs, harness.Run{Index: i, Cell: cell, Spec: spec})
	}
	for _, workers := range []int{1, 3} {
		_, err := harness.Execute(runs, harness.Options{Workers: workers})
		if err == nil || !strings.Contains(err.Error(), `run 2 (cell "cell2"`) {
			t.Fatalf("workers=%d: err = %v, want first grid-order failure (run 2)", workers, err)
		}
	}
}

func TestGridSweepStructure(t *testing.T) {
	cfg := harness.SweepConfig{Duration: time.Second, Seed: 42, Replications: 3}
	sw := harness.Grid{Name: "g", Cells: []string{"a", "b"}, Build: func(cell string) scenario.Spec {
		return scenario.Paper(40 * time.Millisecond)
	}}.Sweep(cfg)
	if len(sw.Runs) != 6 {
		t.Fatalf("runs = %d, want 6", len(sw.Runs))
	}
	for i, r := range sw.Runs {
		if r.Index != i {
			t.Fatalf("run %d has index %d", i, r.Index)
		}
		wantCell := "a"
		if i >= 3 {
			wantCell = "b"
		}
		if r.Cell != wantCell || r.Rep != i%3 {
			t.Fatalf("run %d = cell %q rep %d", i, r.Cell, r.Rep)
		}
		if r.Spec.Seed != harness.ReplicationSeed(42, r.Rep) {
			t.Fatalf("run %d seed %d not derived from (42, %d)", i, r.Spec.Seed, r.Rep)
		}
		if r.Spec.Duration != time.Second {
			t.Fatalf("run %d duration %v", i, r.Spec.Duration)
		}
	}
	// Same rep in different cells shares the seed; different reps differ.
	if sw.Runs[0].Spec.Seed != sw.Runs[3].Spec.Seed {
		t.Fatal("rep 0 seeds differ across cells")
	}
	if sw.Runs[0].Spec.Seed == sw.Runs[1].Spec.Seed {
		t.Fatal("rep 0 and rep 1 share a seed")
	}
}

func TestAggregate(t *testing.T) {
	sw := shortSweep(t)
	results, err := harness.Execute(sw.Runs, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Results keep grid order: each cell's two replications in a row.
	for i, cell := range []string{"30ms", "40ms"} {
		rs := results[2*i : 2*i+2]
		sum := harness.Aggregate(rs, func(r *scenario.Result) float64 {
			return r.TotalKbps(piconet.Guaranteed)
		})
		if sum.N != 2 {
			t.Fatalf("cell %s aggregated %d values", cell, sum.N)
		}
		if sum.Mean < 200 || sum.Mean > 300 {
			t.Fatalf("cell %s GS mean = %v, want ~256", cell, sum.Mean)
		}
		if sum.Min > sum.Mean || sum.Max < sum.Mean {
			t.Fatalf("cell %s summary inconsistent: %+v", cell, sum)
		}
	}
}

// panicTracer panics on the first traced exchange: a stand-in for any
// bug deep inside one run's simulation.
type panicTracer struct{}

func (panicTracer) Trace(piconet.TraceEntry) { panic("tracer exploded") }

// TestExecutePanicIsolated: a run that panics mid-simulation becomes that
// run's Err — the worker survives, the sweep's other runs complete, and
// the sweep error names the faulty run.
func TestExecutePanicIsolated(t *testing.T) {
	spec := scenario.Paper(40 * time.Millisecond)
	spec.Duration = time.Second
	runs := []harness.Run{
		{Index: 0, Cell: "ok", Spec: spec},
		{Index: 1, Cell: "boom", Spec: spec, Hooks: scenario.Hooks{Tracer: panicTracer{}}},
		{Index: 2, Cell: "ok", Rep: 1, Spec: spec},
	}
	results, err := harness.Execute(runs, harness.Options{Workers: 2})
	if err == nil {
		t.Fatal("sweep error missing")
	}
	if !errors.Is(err, harness.ErrRunPanicked) {
		t.Fatalf("sweep error = %v, want ErrRunPanicked", err)
	}
	if !strings.Contains(err.Error(), `cell "boom"`) {
		t.Fatalf("sweep error %q does not name the cell", err)
	}
	if !errors.Is(results[1].Err, harness.ErrRunPanicked) {
		t.Fatalf("run 1 err = %v", results[1].Err)
	}
	if !strings.Contains(results[1].Err.Error(), "tracer exploded") {
		t.Fatalf("panic value lost: %v", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Result == nil {
			t.Fatalf("healthy run %d infected: %+v", i, results[i].Err)
		}
	}
}

// TestStartCPUProfile: the -cpuprofile helper writes a non-empty gzip
// profile once stopped, and an unwritable path is an error, not a panic.
func TestStartCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop, err := harness.StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile is not gzip data: % x", b[:min(len(b), 8)])
	}
	if _, err := harness.StartCPUProfile(filepath.Join(t.TempDir(), "missing", "cpu.pprof")); err == nil {
		t.Fatal("profile into a missing directory accepted")
	}
}
