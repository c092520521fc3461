package experiments

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"bluegs/internal/harness"
	"bluegs/internal/scenario"
)

var churnTestArrivals = []time.Duration{1 * time.Second, 3 * time.Second}

// TestChurnDeterministicAcrossWorkers: timeline (churn) sweeps keep the
// harness's core guarantee — byte-identical tables and rows at any worker
// count.
func TestChurnDeterministicAcrossWorkers(t *testing.T) {
	type snapshot struct {
		rows  []ChurnRow
		table string
	}
	var base *snapshot
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := Config{
			Duration:     4 * time.Second,
			Seed:         1,
			Replications: 2,
			Workers:      workers,
		}
		rows, tbl, err := ChurnStudy(cfg, churnTestArrivals)
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
			t.Fatalf("workers=%d: rows diverged\n got %+v\nwant %+v", workers, got.rows, base.rows)
		}
	}
}

// TestChurnWarmCacheReplaysExactly: a churn sweep replayed from a warm
// run cache — admission logs included — reproduces the cold output byte
// for byte without executing the simulator.
func TestChurnWarmCacheReplaysExactly(t *testing.T) {
	cache, err := harness.NewRunCache(harness.CacheConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Duration: 4 * time.Second, Seed: 1, Replications: 2, Cache: cache}
	_, cold, err := ChurnStudy(cfg, churnTestArrivals)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 0 || st.Stores == 0 {
		t.Fatalf("cold pass: %v", st)
	}
	_, warm, err := ChurnStudy(cfg, churnTestArrivals)
	if err != nil {
		t.Fatal(err)
	}
	if warm.String() != cold.String() {
		t.Fatalf("warm replay diverged\n--- warm ---\n%s--- cold ---\n%s",
			warm.String(), cold.String())
	}
	st = cache.Stats()
	if st.Misses != st.Stores {
		t.Fatalf("warm pass missed the cache: %v", st)
	}
	if st.Hits == 0 {
		t.Fatalf("warm pass served nothing from the cache: %v", st)
	}
}

// TestChurnRejectsUnderHeavyLoad: with arrivals far faster than
// departures the piconet fills and the admission test must start
// refusing requests — while every admitted flow still meets its bound.
func TestChurnRejectsUnderHeavyLoad(t *testing.T) {
	cfg := Config{Duration: 30 * time.Second, Seed: 1}
	rows, _, err := ChurnStudy(cfg, []time.Duration{500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.Requests == 0 || row.Rejected == 0 {
		t.Fatalf("heavy churn should reject some requests: %+v", row)
	}
	if row.Violations != 0 {
		t.Fatalf("admitted flows violated bounds: %+v", row)
	}
	if row.AcceptRatio <= 0 || row.AcceptRatio >= 1 {
		t.Fatalf("accept ratio %v should be in (0, 1)", row.AcceptRatio)
	}
}

// TestChurnPollersDuplicatePoller: a poller given twice is one point,
// so its row aggregates one run per replication, not two copies of the
// same seed.
func TestChurnPollersDuplicatePoller(t *testing.T) {
	cfg := Config{Duration: 4 * time.Second, Seed: 1}
	rows, _, err := ChurnPollers(cfg, []scenario.BEPollerKind{scenario.BEPFP, scenario.BEPFP})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Reps != 1 {
		t.Fatalf("rows = %+v, want one row of 1 rep", rows)
	}
}
