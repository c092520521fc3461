package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bluegs/internal/harness"
)

// TestBridgeStudyDeratingKeepsBounds is the E12 acceptance criterion: at
// every residency duty cycle, two-hop routes admitted from the
// residency-derated budget split meet their end-to-end bound over 30 s,
// while the naive baseline — full budget per hop, no residency derate —
// violates it. Packets queue while a bridge is resident elsewhere; only
// the derated reservation polls fast enough to drain the backlog in
// budget.
func TestBridgeStudyDeratingKeepsBounds(t *testing.T) {
	cfg := Config{Duration: 30 * time.Second, Seed: 1}
	duties := DefaultBridgeDuties()
	rows, _, err := BridgeStudy(cfg, []int{2}, duties, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(duties) {
		t.Fatalf("%d rows, want %d", len(rows), 2*len(duties))
	}
	derated := map[float64]BridgeRow{}
	naive := map[float64]BridgeRow{}
	for _, row := range rows {
		if row.Naive {
			naive[row.Duty] = row
		} else {
			derated[row.Duty] = row
		}
	}
	for _, duty := range duties {
		d, n := derated[duty], naive[duty]
		if d.Delivered == 0 || n.Delivered == 0 {
			t.Fatalf("duty %.1f: routes did not deliver (derated %d, naive %d)",
				duty, d.Delivered, n.Delivered)
		}
		if d.Violations != 0 {
			t.Fatalf("duty %.1f: derated admission violated its end-to-end bound (max %v > %v)",
				duty, d.DelayMax, d.Target)
		}
		if n.Violations == 0 {
			t.Fatalf("duty %.1f: naive baseline stayed inside the bound (max %v <= %v) — the study is not exercising the failure E12 exists to show",
				duty, n.DelayMax, n.Target)
		}
		if n.PeakQueue == 0 {
			t.Fatalf("duty %.1f: naive route built no bridge backlog, the violation has the wrong cause", duty)
		}
	}
}

// TestBridgeStudyCloseDuties: duties that agree to two decimals are still
// distinct points, each with a derated and a naive row, and the duty
// column tells them apart.
func TestBridgeStudyCloseDuties(t *testing.T) {
	cfg := Config{Duration: time.Second, Seed: 1}
	rows, tbl, err := BridgeStudy(cfg, []int{2}, []float64{0.301, 0.304}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 (two duties × two admission modes)", len(rows))
	}
	if out := tbl.String(); !strings.Contains(out, "0.301") || !strings.Contains(out, "0.304") {
		t.Fatalf("duty column does not tell 0.301 from 0.304:\n%s", out)
	}
}

// TestBridgeStudyDeterministicAcrossWorkers: the E12 sweep must render
// bit-identical tables at every worker count.
func TestBridgeStudyDeterministicAcrossWorkers(t *testing.T) {
	type snapshot struct {
		rows  []BridgeRow
		table string
	}
	var base *snapshot
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := Config{Duration: 3 * time.Second, Seed: 1, Replications: 2, Workers: workers}
		rows, tbl, err := BridgeStudy(cfg, []int{1, 2}, []float64{0.5}, nil)
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

// TestBridgeStudyWarmCacheReplay: the E12 sweep replayed from a warm run
// cache reproduces the cold table — the route results and the per-hop
// admission records now travel through the cache record — without
// executing a single simulator.
func TestBridgeStudyWarmCacheReplay(t *testing.T) {
	dir := t.TempDir()
	run := func() (string, harness.CacheStats) {
		cache, err := harness.NewRunCache(harness.CacheConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Duration: 3 * time.Second, Seed: 1, Replications: 2, Cache: cache}
		_, tbl, err := BridgeStudy(cfg, []int{2}, []float64{0.3, 0.5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tbl.String(), cache.Stats()
	}
	cold, coldStats := run()
	if coldStats.Hits != 0 {
		t.Fatalf("cold pass hit the cache %d times", coldStats.Hits)
	}
	// A fresh cache instance over the same directory: every run replays
	// from the on-disk gob records — route rows included — without
	// executing a single simulator.
	warm, warmStats := run()
	if warm != cold {
		t.Fatalf("warm table differs\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	if warmStats.Misses != 0 {
		t.Fatalf("warm pass executed %d simulations", warmStats.Misses)
	}
}
