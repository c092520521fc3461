package harness_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bluegs/internal/harness"
	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
)

func newCache(t *testing.T, cfg harness.CacheConfig) *harness.RunCache {
	t.Helper()
	c, err := harness.NewRunCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunCacheMemoryRoundTrip: a second pass over the same sweep is served
// entirely from memory and reproduces the results bit for bit.
func TestRunCacheMemoryRoundTrip(t *testing.T) {
	sw := shortSweep(t)
	cache := newCache(t, harness.CacheConfig{})
	cold, err := harness.Execute(sw.Runs, harness.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cold {
		if r.CacheHit {
			t.Fatal("cold run reported a cache hit")
		}
	}
	warm, err := harness.Execute(sw.Runs, harness.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range warm {
		if !r.CacheHit {
			t.Fatalf("warm run %d executed the simulator", i)
		}
	}
	if got, want := fingerprint(t, warm), fingerprint(t, cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("cached results drifted:\n got %v\nwant %v", got, want)
	}
	st := cache.Stats()
	if st.Hits != uint64(len(sw.Runs)) || st.Stores != uint64(len(sw.Runs)) {
		t.Fatalf("stats = %+v, want %d hits and stores", st, len(sw.Runs))
	}
}

// TestRunCacheDiskRoundTrip: a fresh cache over the same directory (a new
// process, in effect) replays the sweep from disk with every statistic —
// including delay quantiles backed by the serialized samples — exact.
func TestRunCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sw := shortSweep(t)
	cold, err := harness.Execute(sw.Runs, harness.Options{
		Cache: newCache(t, harness.CacheConfig{Dir: dir}),
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh := newCache(t, harness.CacheConfig{Dir: dir})
	warm, err := harness.Execute(sw.Runs, harness.Options{Cache: fresh})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, warm), fingerprint(t, cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("disk round trip drifted:\n got %v\nwant %v", got, want)
	}
	st := fresh.Stats()
	if st.DiskHits != uint64(len(sw.Runs)) {
		t.Fatalf("stats = %+v, want %d disk hits", st, len(sw.Runs))
	}
	for i := range warm {
		// A fresh run stores the defaulted spec; a cache hit must
		// re-attach the same defaulted form, or table headers (Mode,
		// Duration) diverge between cold and warm renders.
		if got, want := warm[i].Result.Spec, cold[i].Result.Spec; got.Mode != want.Mode ||
			got.Duration != want.Duration || got.Seed != want.Seed {
			t.Fatalf("run %d: replayed spec drifted: got %+v want %+v", i, got, want)
		}
	}
	for i := range warm {
		a, b := cold[i].Result, warm[i].Result
		if a.Events != b.Events || a.GSPolls != b.GSPolls || a.BEPolls != b.BEPolls ||
			a.Slots != b.Slots || a.Elapsed != b.Elapsed {
			t.Fatalf("run %d counters drifted through disk", i)
		}
		for j, f := range a.Flows {
			g := b.Flows[j]
			if f.Delay == nil || g.Delay == nil {
				t.Fatalf("run %d flow %d lost its delay statistics", i, f.ID)
			}
			for _, q := range []float64{0.5, 0.9, 0.99, 1} {
				if f.Delay.Quantile(q) != g.Delay.Quantile(q) {
					t.Fatalf("run %d flow %d quantile %v drifted", i, f.ID, q)
				}
			}
		}
		if len(a.Admitted) != len(b.Admitted) {
			t.Fatalf("run %d admission plan lost", i)
		}
		for j := range a.Admitted {
			if *a.Admitted[j] != *b.Admitted[j] {
				t.Fatalf("run %d admitted flow %d drifted: %+v vs %+v",
					i, j, a.Admitted[j], b.Admitted[j])
			}
		}
	}
}

// TestRunCacheTracerBypass: traced runs execute every time and are never
// stored — their side effects cannot be replayed from a cache.
func TestRunCacheTracerBypass(t *testing.T) {
	spec := scenario.Paper(40 * time.Millisecond)
	spec.Duration = time.Second
	tracer := piconet.NewRingTracer(16)
	runs := []harness.Run{{Index: 0, Cell: "traced", Spec: spec,
		Hooks: scenario.Hooks{Tracer: tracer}}}
	cache := newCache(t, harness.CacheConfig{})
	for pass := 0; pass < 2; pass++ {
		results, err := harness.Execute(runs, harness.Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if results[0].CacheHit {
			t.Fatalf("pass %d: traced run served from cache", pass)
		}
	}
	st := cache.Stats()
	if st.Stores != 0 || st.Hits != 0 {
		t.Fatalf("traced runs touched the cache: %+v", st)
	}
}

// TestRunCacheSaltInvalidates: changing the code-version salt must miss on
// a directory full of old results.
func TestRunCacheSaltInvalidates(t *testing.T) {
	dir := t.TempDir()
	spec := scenario.Paper(40 * time.Millisecond)
	spec.Duration = time.Second
	runs := []harness.Run{{Index: 0, Cell: "c", Spec: spec}}
	if _, err := harness.Execute(runs, harness.Options{
		Cache: newCache(t, harness.CacheConfig{Dir: dir, Salt: "sim-vA"}),
	}); err != nil {
		t.Fatal(err)
	}
	stale := newCache(t, harness.CacheConfig{Dir: dir, Salt: "sim-vB"})
	results, err := harness.Execute(runs, harness.Options{Cache: stale})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].CacheHit {
		t.Fatal("salted-out result was replayed")
	}
	if st := stale.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 miss", st)
	}
}

// TestRunCacheEviction: the in-memory LRU stays bounded and evicts the
// least recently used entry first.
func TestRunCacheEviction(t *testing.T) {
	cache := newCache(t, harness.CacheConfig{MaxEntries: 2})
	specs := make([]scenario.Spec, 3)
	for i := range specs {
		specs[i] = scenario.Paper(time.Duration(30+2*i) * time.Millisecond)
		specs[i].Duration = time.Second
		res, err := scenario.Run(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.Put(specs[i], res); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("Len = %d, want bound 2", cache.Len())
	}
	if _, ok := cache.Get(specs[0]); ok {
		t.Fatal("oldest entry survived eviction")
	}
	for i := 1; i < 3; i++ {
		if _, ok := cache.Get(specs[i]); !ok {
			t.Fatalf("recent entry %d evicted", i)
		}
	}
}

// TestRunCacheCorruptionResilience: a truncated or garbled on-disk entry
// fails its integrity footer, is deleted, degrades to a miss — and the
// fresh execution rewrites it, so a later pass replays everything again.
func TestRunCacheCorruptionResilience(t *testing.T) {
	dir := t.TempDir()
	sw := shortSweep(t)
	cold, err := harness.Execute(sw.Runs, harness.Options{
		Cache: newCache(t, harness.CacheConfig{Dir: dir}),
	})
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.run.gob"))
	if err != nil || len(files) != len(sw.Runs) {
		t.Fatalf("cache files = %d (%v), want %d", len(files), err, len(sw.Runs))
	}
	// Truncate one entry mid-payload and flip a byte in another.
	if err := os.Truncate(files[0], 10); err != nil {
		t.Fatal(err)
	}
	garbled, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	garbled[len(garbled)/2] ^= 0xFF
	if err := os.WriteFile(files[1], garbled, 0o644); err != nil {
		t.Fatal(err)
	}

	damaged := newCache(t, harness.CacheConfig{Dir: dir})
	warm, err := harness.Execute(sw.Runs, harness.Options{Cache: damaged})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, warm), fingerprint(t, cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("results drifted through corruption:\n got %v\nwant %v", got, want)
	}
	st := damaged.Stats()
	if st.Corrupt != 2 || st.Misses != 2 || st.Hits != uint64(len(sw.Runs)-2) {
		t.Fatalf("stats = %+v, want 2 corrupt drops and misses", st)
	}
	if !strings.Contains(st.String(), "2 corrupt dropped") {
		t.Fatalf("stats line hides the corruption: %q", st)
	}
	if strings.Contains(harness.CacheStats{}.String(), "corrupt") {
		t.Fatal("healthy stats line changed shape")
	}
	// The damaged entries were rewritten: a third fresh cache replays the
	// whole sweep from disk.
	final := newCache(t, harness.CacheConfig{Dir: dir})
	again, err := harness.Execute(sw.Runs, harness.Options{Cache: final})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range again {
		if !r.CacheHit {
			t.Fatalf("run %d executed after the rewrite pass", i)
		}
	}
	if st := final.Stats(); st.DiskHits != uint64(len(sw.Runs)) || st.Corrupt != 0 {
		t.Fatalf("final stats = %+v, want %d clean disk hits", st, len(sw.Runs))
	}
}
