package harness_test

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bluegs/internal/harness"
)

// TestRunCacheSharedDirMultiWriter: two RunCache instances over the same
// directory — two processes, in effect — execute the same sweep
// concurrently. Atomic temp+rename writes mean neither can corrupt the
// other's entries, duplicate stores are recognised and ignored, and a
// third fresh cache over the directory replays every run from disk
// bit-identically.
func TestRunCacheSharedDirMultiWriter(t *testing.T) {
	dir := t.TempDir()
	sw := shortSweep(t)
	reference, err := harness.Execute(sw.Runs, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, reference)

	caches := []*harness.RunCache{
		newCache(t, harness.CacheConfig{Dir: dir}),
		newCache(t, harness.CacheConfig{Dir: dir}),
	}
	results := make([][]harness.RunResult, len(caches))
	errs := make([]error, len(caches))
	var wg sync.WaitGroup
	for i, cache := range caches {
		wg.Add(1)
		go func(i int, cache *harness.RunCache) {
			defer wg.Done()
			results[i], errs[i] = harness.Execute(sw.Runs, harness.Options{Cache: cache})
		}(i, cache)
	}
	wg.Wait()
	for i := range caches {
		if errs[i] != nil {
			t.Fatalf("writer %d: %v", i, errs[i])
		}
		if got := fingerprint(t, results[i]); !reflect.DeepEqual(got, want) {
			t.Fatalf("writer %d drifted:\n got %v\nwant %v", i, got, want)
		}
	}

	// Every run either hit a cache or executed; every executed run's
	// store was booked once — as a Store, or as a DupPut when the other
	// writer's entry landed first. Nothing is lost or double-booked.
	var stores, dups, served uint64
	for i, cache := range caches {
		st := cache.Stats()
		if st.Corrupt != 0 {
			t.Fatalf("writer %d saw %d corrupt entries: %+v", i, st.Corrupt, st)
		}
		stores += st.Stores
		dups += st.DupPuts
		served += st.Hits // DiskHits is a subset of Hits
	}
	if total := stores + dups + served; total != uint64(2*len(sw.Runs)) {
		t.Fatalf("stores+dups+hits = %d+%d+%d, want %d (every run accounted once)",
			stores, dups, served, 2*len(sw.Runs))
	}
	if stores < uint64(len(sw.Runs)) || stores > uint64(2*len(sw.Runs)) {
		t.Fatalf("stores = %d for %d distinct runs across two writers", stores, len(sw.Runs))
	}

	// A fresh cache (a third process) replays the whole sweep from disk.
	fresh := newCache(t, harness.CacheConfig{Dir: dir})
	warm, err := harness.Execute(sw.Runs, harness.Options{Cache: fresh})
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, warm); !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh cache replay drifted:\n got %v\nwant %v", got, want)
	}
	st := fresh.Stats()
	if st.DiskHits != uint64(len(sw.Runs)) || st.Corrupt != 0 {
		t.Fatalf("fresh cache stats = %+v, want %d clean disk hits", st, len(sw.Runs))
	}
}

// TestRunCacheDuplicatePutNoOp: storing a result whose entry already
// exists on disk (written by another process) is a clean no-op counted in
// DupPuts, and the stats rendering surfaces it.
func TestRunCacheDuplicatePutNoOp(t *testing.T) {
	dir := t.TempDir()
	sw := shortSweep(t)
	runs := sw.Runs[:1]
	if _, err := harness.Execute(runs, harness.Options{
		Cache: newCache(t, harness.CacheConfig{Dir: dir}),
	}); err != nil {
		t.Fatal(err)
	}

	// A second cache over the directory stores a freshly simulated copy
	// of the same run.
	second := newCache(t, harness.CacheConfig{Dir: dir})
	res, err := harness.Execute(runs, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Put(runs[0].Spec, res[0].Result); err != nil {
		t.Fatalf("duplicate put errored: %v", err)
	}
	st := second.Stats()
	if st.DupPuts != 1 || st.Stores != 0 {
		t.Fatalf("stats = %+v, want 1 duplicate put and 0 stores", st)
	}
	if s := st.String(); !strings.Contains(s, "1 duplicate puts ignored") {
		t.Fatalf("stats string %q does not surface the duplicate put", s)
	}

	// Same-cache double put: the entry the first Put wrote
	// short-circuits the second.
	first := newCache(t, harness.CacheConfig{Dir: t.TempDir()})
	if err := first.Put(runs[0].Spec, res[0].Result); err != nil {
		t.Fatal(err)
	}
	if err := first.Put(runs[0].Spec, res[0].Result); err != nil {
		t.Fatal(err)
	}
	if st := first.Stats(); st.Stores != 1 || st.DupPuts != 1 {
		t.Fatalf("stats = %+v, want 1 store + 1 duplicate put", st)
	}
}

// TestExecuteInterrupt: a fired Interrupt channel stops dispatch, the
// abandoned runs carry ErrInterrupted, and completed results are intact —
// the checkpoint contract cmd SIGINT handling relies on.
func TestExecuteInterrupt(t *testing.T) {
	sw := shortSweep(t)
	interrupt := make(chan struct{})
	var once sync.Once
	results, err := harness.Execute(sw.Runs, harness.Options{
		Workers: 1,
		OnProgress: func(done, total int, r harness.RunResult) {
			once.Do(func() { close(interrupt) })
		},
		Interrupt: interrupt,
	})
	if !errors.Is(err, harness.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	var completed, abandoned int
	for i, r := range results {
		switch {
		case errors.Is(r.Err, harness.ErrInterrupted):
			abandoned++
		case r.Err == nil && r.Result != nil:
			completed++
		default:
			t.Fatalf("run %d: unexpected state err=%v", i, r.Err)
		}
	}
	if completed == 0 || abandoned == 0 {
		t.Fatalf("completed = %d, abandoned = %d, want both non-zero", completed, abandoned)
	}
	// The dispatcher checks the interrupt before every send, so after the
	// first run's OnProgress fired at most one more run can slip through.
	if completed > 2 {
		t.Fatalf("completed = %d runs after an interrupt at run 1", completed)
	}

	// An interrupt that has already fired abandons everything.
	closed := make(chan struct{})
	close(closed)
	results, err = harness.Execute(sw.Runs, harness.Options{Workers: 1, Interrupt: closed})
	if !errors.Is(err, harness.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, harness.ErrInterrupted) {
			t.Fatalf("run %d not abandoned: err=%v", i, r.Err)
		}
	}
}
