package experiments

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"bluegs/internal/harness"
	"bluegs/internal/scenario"
)

// TestScatternetStudyMonotonic is the E9 acceptance criterion: under the
// interference model the scatternet-wide violation fraction must be zero
// at one piconet (the paper's guarantee) and never decrease as piconets
// are added.
func TestScatternetStudyMonotonic(t *testing.T) {
	// A 30 s horizon with widely spaced counts: per-flow max-delay
	// violations are binary, so short horizons are too noisy for a
	// strict monotonicity assertion.
	cfg := Config{Duration: 30 * time.Second, Seed: 1}
	counts := []int{1, 2, 4, 8}
	rows, _, err := ScatternetStudy(cfg, counts, []float64{60})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(counts) {
		t.Fatalf("%d rows, want %d", len(rows), len(counts))
	}
	if rows[0].ViolationFraction != 0 || rows[0].Violations != 0 {
		t.Fatalf("one piconet must keep the paper's guarantee: %+v", rows[0])
	}
	prev := -1.0
	for _, row := range rows {
		if row.ViolationFraction < prev {
			t.Fatalf("violation fraction not monotone: %d piconets -> %.3f after %.3f",
				row.Piconets, row.ViolationFraction, prev)
		}
		prev = row.ViolationFraction
		if row.GSFlows != row.Piconets*2 {
			t.Fatalf("%d piconets: %d GS flows, want %d", row.Piconets, row.GSFlows, row.Piconets*2)
		}
		if len(row.PerPiconet) != row.Piconets {
			t.Fatalf("%d piconets: %d compliance cells", row.Piconets, len(row.PerPiconet))
		}
	}
	last := rows[len(rows)-1]
	if last.ViolationFraction == 0 {
		t.Fatalf("%d co-channel piconets saw no erosion at all", last.Piconets)
	}
}

// TestScatternetDeterministicAcrossWorkers: the E9 sweep — N piconets
// interleaving on one kernel per run, runs fanned out across the pool —
// must render bit-identical tables at every worker count.
func TestScatternetDeterministicAcrossWorkers(t *testing.T) {
	type snapshot struct {
		rows  []ScatternetRow
		table string
	}
	var base *snapshot
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := Config{Duration: 3 * time.Second, Seed: 1, Replications: 2, Workers: workers}
		rows, tbl, err := ScatternetStudy(cfg, []int{1, 3}, []float64{60})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := &snapshot{rows: rows, table: tbl.String()}
		if base == nil {
			base = got
			continue
		}
		if got.table != base.table {
			t.Fatalf("workers=%d: table diverged\n--- got ---\n%s--- want ---\n%s",
				workers, got.table, base.table)
		}
		if !reflect.DeepEqual(got.rows, base.rows) {
			t.Fatalf("workers=%d: rows diverged", workers)
		}
	}
}

// TestScatternetWarmCacheReplay: a scatternet sweep replayed from a warm
// run cache must reproduce the cold pass exactly — the rendered study
// table and, on a timeline-bearing scatternet run, the per-piconet
// admission logs — without executing a single simulator.
func TestScatternetWarmCacheReplay(t *testing.T) {
	cache, err := harness.NewRunCache(harness.CacheConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	// The E9 sweep, cold then warm.
	run := func() string {
		cfg := Config{Duration: 3 * time.Second, Seed: 1, Replications: 2, Cache: cache}
		_, tbl, err := ScatternetStudy(cfg, []int{1, 2}, []float64{60})
		if err != nil {
			t.Fatal(err)
		}
		return tbl.String()
	}
	cold := run()
	stats := cache.Stats()
	if stats.Hits != 0 {
		t.Fatalf("cold pass hit the cache %d times", stats.Hits)
	}
	warm := run()
	if warm != cold {
		t.Fatalf("warm table differs\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	after := cache.Stats()
	if after.Misses != stats.Misses {
		t.Fatalf("warm pass executed %d simulations", after.Misses-stats.Misses)
	}

	// A timeline-bearing scatternet spec: per-piconet admission logs must
	// survive the cache round trip bit for bit.
	spec := scenario.Scatternet(scenario.ScatternetConfig{Piconets: 2, Duration: 3 * time.Second})
	spec.Timeline = []scenario.TimelineEvent{
		scenario.AddGSAt(time.Second, scenario.GSFlow{
			ID: 50, Slave: 5, Dir: 2, Interval: 20 * time.Millisecond, MinSize: 144, MaxSize: 176,
		}).For("pn2"),
		scenario.RemoveAt(2*time.Second, 50).For("pn2"),
	}
	grid := harness.Grid{Name: "tl", Cells: []string{"tl"},
		Build: func(string) scenario.Spec { return spec }}
	sw := grid.Sweep(harness.SweepConfig{Duration: spec.Duration, Seed: 1, Replications: 1})
	coldRes, err := harness.Execute(sw.Runs, harness.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := harness.Execute(sw.Runs, harness.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !warmRes[0].CacheHit {
		t.Fatal("second pass did not replay from the cache")
	}
	a, b := coldRes[0].Result, warmRes[0].Result
	if len(a.Admissions) == 0 {
		t.Fatal("timeline produced no admission records")
	}
	if !reflect.DeepEqual(a.Admissions, b.Admissions) {
		t.Fatalf("cached admission log drifted:\ncold: %+v\nwarm: %+v", a.Admissions, b.Admissions)
	}
	if len(a.Piconets) != len(b.Piconets) {
		t.Fatalf("piconet results drifted: %d vs %d", len(a.Piconets), len(b.Piconets))
	}
	for i := range a.Piconets {
		if !reflect.DeepEqual(a.Piconets[i].Admissions, b.Piconets[i].Admissions) {
			t.Fatalf("piconet %q admission log drifted", a.Piconets[i].Name)
		}
		if a.Piconets[i].Slots != b.Piconets[i].Slots {
			t.Fatalf("piconet %q slot account drifted", a.Piconets[i].Name)
		}
	}
	if a.Report().String() != b.Report().String() {
		t.Fatal("cached report drifted")
	}
}

// TestChurnPollersKeepGuarantee: the paper's admission guarantee may not
// depend on the competing best-effort discipline — every poller's churn
// run must stay violation-free with a full accept log.
func TestChurnPollersKeepGuarantee(t *testing.T) {
	cfg := Config{Duration: 8 * time.Second, Seed: 1}
	rows, _, err := ChurnPollers(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(scenario.AllBEPollers) {
		t.Fatalf("%d rows, want %d", len(rows), len(scenario.AllBEPollers))
	}
	for _, row := range rows {
		if row.Violations != 0 {
			t.Fatalf("%s: %d bound violations under churn", row.Poller, row.Violations)
		}
		if row.Requests == 0 {
			t.Fatalf("%s: churn produced no admission requests", row.Poller)
		}
	}
}
