package harness_test

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bluegs/internal/harness"
	"bluegs/internal/scenario"
)

// reportText renders the result's report and admission log, the text a
// replayed result must reproduce byte for byte.
func reportText(res *scenario.Result) string {
	out := res.Report().String()
	if adm := res.AdmissionReport(); adm != nil {
		out += adm.String()
	}
	return out
}

// TestEntryRoundTripRegistry: for every registry preset — flat, churn,
// scatternet, bridge and fault presets — a result encoded as a cache
// entry and decoded again renders the identical report and admission
// log, and the Result-level aggregates rebuilt by the rollup on decode
// equal the fresh run's (multi-piconet map sums included).
func TestEntryRoundTripRegistry(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			spec, _ := scenario.Lookup(name)
			spec.Duration = 2 * time.Second
			fresh, err := scenario.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			key := harness.CacheKey(harness.DefaultCacheSalt, spec)
			entry, err := harness.EncodeResultEntry(key, fresh)
			if err != nil {
				t.Fatal(err)
			}
			got, err := harness.DecodeResultEntry(key, entry, spec)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := reportText(got), reportText(fresh); a != b {
				t.Fatalf("replayed report differs:\n--- fresh ---\n%s--- replayed ---\n%s", b, a)
			}
			// Both sides have now rendered (and so sorted) their delay
			// samples, so their statistics compare state for state.
			if !reflect.DeepEqual(got.Flows, fresh.Flows) {
				t.Error("Flows differ")
			}
			if !reflect.DeepEqual(got.SlaveKbps, fresh.SlaveKbps) {
				t.Errorf("SlaveKbps = %v, want %v", got.SlaveKbps, fresh.SlaveKbps)
			}
			if !reflect.DeepEqual(got.SCOKbps, fresh.SCOKbps) {
				t.Errorf("SCOKbps = %v, want %v", got.SCOKbps, fresh.SCOKbps)
			}
			if got.Slots != fresh.Slots {
				t.Errorf("Slots = %+v, want %+v", got.Slots, fresh.Slots)
			}
			if got.GSPolls != fresh.GSPolls || got.BEPolls != fresh.BEPolls || got.Skipped != fresh.Skipped {
				t.Errorf("polls = %d/%d/%d, want %d/%d/%d", got.GSPolls, got.BEPolls, got.Skipped,
					fresh.GSPolls, fresh.BEPolls, fresh.Skipped)
			}
			if !reflect.DeepEqual(got.Admitted, fresh.Admitted) {
				t.Error("Admitted differs")
			}
			if len(got.Piconets) == 1 && len(got.Flows) > 0 && &got.Flows[0] != &got.Piconets[0].Flows[0] {
				t.Error("flat result does not share Flows with Piconets[0]")
			}
		})
	}
}

// reframe replaces an entry's integrity footer with one carrying magic
// over the same payload, length and CRC intact.
func reframe(entry []byte, magic string) []byte {
	payload := entry[:len(entry)-len(magic)-8]
	out := append(append([]byte(nil), payload...), magic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// TestRunCacheDropsOldFormat: an entry framed with an older format's
// footer — BGC1, or BGC2 from before the delta-coded delay samples — here
// over a payload that would otherwise decode, fails the footer check, is
// dropped as corrupt, recomputed and re-stored in the current format.
func TestRunCacheDropsOldFormat(t *testing.T) {
	for _, magic := range []string{"BGC1", "BGC2"} {
		t.Run(magic, func(t *testing.T) { testRunCacheDropsOldFormat(t, magic) })
	}
}

func testRunCacheDropsOldFormat(t *testing.T, magic string) {
	dir := t.TempDir()
	spec := scenario.Paper(40 * time.Millisecond)
	spec.Duration = time.Second
	runs := []harness.Run{{Index: 0, Cell: "c", Spec: spec}}
	cold, err := harness.Execute(runs, harness.Options{Cache: newCache(t, harness.CacheConfig{Dir: dir})})
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.run.gob"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache files = %v (%v), want 1", files, err)
	}
	entry, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], reframe(entry, magic), 0o644); err != nil {
		t.Fatal(err)
	}

	cache := newCache(t, harness.CacheConfig{Dir: dir})
	warm, err := harness.Execute(runs, harness.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if warm[0].CacheHit {
		t.Fatal("old-format entry was replayed")
	}
	if got, want := fingerprint(t, warm), fingerprint(t, cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("recomputed result drifted:\n got %v\nwant %v", got, want)
	}
	st := cache.Stats()
	if st.Corrupt != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt drop, 1 miss, 1 store", st)
	}
	if !strings.Contains(st.String(), "1 corrupt dropped") {
		t.Fatalf("stats line hides the drop: %q", st)
	}
	// The rewrite is a current-format entry: a fresh cache replays it.
	again, err := harness.Execute(runs, harness.Options{Cache: newCache(t, harness.CacheConfig{Dir: dir})})
	if err != nil {
		t.Fatal(err)
	}
	if !again[0].CacheHit {
		t.Fatal("re-stored entry was not replayed")
	}
}

// TestEntryBytesPerDelayValue: a cached delay value costs under 3.5
// bytes of entry on the paper spec at 10 s (about 2.6 with the delta
// layout, 6.2 without it). A collector that stops sorting its samples,
// or a value that is no longer an integral nanosecond, silently falls
// back to the raw layout and fails this guard.
func TestEntryBytesPerDelayValue(t *testing.T) {
	spec := scenario.Paper(40 * time.Millisecond)
	spec.Duration = 10 * time.Second
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := harness.EncodeResultEntry(harness.CacheKey(harness.DefaultCacheSalt, spec), res)
	if err != nil {
		t.Fatal(err)
	}
	// Delay samples are unbounded: every counted value is retained and
	// travels in the entry.
	var values uint64
	for _, pr := range res.Piconets {
		for _, f := range pr.Flows {
			values += f.Delay.Count()
		}
	}
	if values == 0 {
		t.Fatal("no delay values retained")
	}
	perValue := float64(len(entry)) / float64(values)
	t.Logf("%d bytes for %d delay values: %.2f bytes a value", len(entry), values, perValue)
	if perValue >= 3.5 {
		t.Fatalf("%.2f bytes a delay value, want under 3.5", perValue)
	}
}

// fig5Entry runs one 60 s Fig. 5 point and encodes it as a cache entry.
func fig5Entry(b *testing.B) (string, *scenario.Result, []byte) {
	b.Helper()
	spec := scenario.Paper(40 * time.Millisecond)
	spec.Duration = 60 * time.Second
	res, err := scenario.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	key := harness.CacheKey(harness.DefaultCacheSalt, spec)
	entry, err := harness.EncodeResultEntry(key, res)
	if err != nil {
		b.Fatal(err)
	}
	return key, res, entry
}

// BenchmarkEncodeResultEntry prices the cache fill of one 60 s Fig. 5
// result: the gob record, the flat delay samples and the footer.
func BenchmarkEncodeResultEntry(b *testing.B) {
	key, res, entry := fig5Entry(b)
	b.SetBytes(int64(len(entry)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.EncodeResultEntry(key, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeResultEntry prices one replay of a 60 s Fig. 5 result:
// footer check, gob record, flat delay samples and the rollup.
func BenchmarkDecodeResultEntry(b *testing.B) {
	key, res, entry := fig5Entry(b)
	b.SetBytes(int64(len(entry)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.DecodeResultEntry(key, entry, res.Spec); err != nil {
			b.Fatal(err)
		}
	}
}
