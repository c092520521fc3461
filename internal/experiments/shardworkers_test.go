package experiments

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestScatternetStudyDeterministicAcrossKernelWorkers is the E9 half of
// the sharded-kernel acceptance spec: the scatternet erosion table —
// whose multi-piconet cells shard one kernel per piconet — must be
// byte-identical at KernelWorkers ∈ {1, 2, GOMAXPROCS}.
func TestScatternetStudyDeterministicAcrossKernelWorkers(t *testing.T) {
	counts := []int{1, 2, 4}
	loads := []float64{60}
	type snapshot struct {
		rows  []ScatternetRow
		table string
	}
	var base *snapshot
	for _, kw := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		cfg := Config{Duration: 2 * time.Second, Seed: 1, KernelWorkers: kw}
		rows, tbl, err := ScatternetStudy(cfg, counts, loads)
		if err != nil {
			t.Fatalf("kernel workers=%d: %v", kw, err)
		}
		got := &snapshot{rows: rows, table: tbl.String()}
		if base == nil {
			base = got
			continue
		}
		if got.table != base.table {
			t.Fatalf("kernel workers=%d: E9 table diverged\n--- got ---\n%s--- want ---\n%s",
				kw, got.table, base.table)
		}
		if !reflect.DeepEqual(got.rows, base.rows) {
			t.Fatalf("kernel workers=%d: E9 rows diverged\n got %+v\nwant %+v", kw, got.rows, base.rows)
		}
	}
}

// TestBridgeStudyDeterministicAcrossKernelWorkers is the E12 half:
// bridge-chained piconets co-shard into one group, so the knob must be
// a byte-exact no-op on the bridge table too.
func TestBridgeStudyDeterministicAcrossKernelWorkers(t *testing.T) {
	hops := []int{2}
	duties := []float64{0.5}
	loads := []int{1}
	type snapshot struct {
		rows  []BridgeRow
		table string
	}
	var base *snapshot
	for _, kw := range []int{1, runtime.GOMAXPROCS(0)} {
		cfg := Config{Duration: 2 * time.Second, Seed: 1, KernelWorkers: kw}
		rows, tbl, err := BridgeStudy(cfg, hops, duties, loads)
		if err != nil {
			t.Fatalf("kernel workers=%d: %v", kw, err)
		}
		got := &snapshot{rows: rows, table: tbl.String()}
		if base == nil {
			base = got
			continue
		}
		if got.table != base.table {
			t.Fatalf("kernel workers=%d: E12 table diverged\n--- got ---\n%s--- want ---\n%s",
				kw, got.table, base.table)
		}
		if !reflect.DeepEqual(got.rows, base.rows) {
			t.Fatalf("kernel workers=%d: E12 rows diverged\n got %+v\nwant %+v", kw, got.rows, base.rows)
		}
	}
}
