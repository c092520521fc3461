package harness_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bluegs/internal/admission"
	"bluegs/internal/harness"
	"bluegs/internal/scenario"
	"bluegs/internal/segmentation"
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
// footer — BGC1, BGC2 from before the delta-coded delay samples, or BGC3
// from before the hand-written record codec — here over a payload that
// would otherwise decode, fails the footer check, is dropped as corrupt,
// recomputed and re-stored in the current format.
func TestRunCacheDropsOldFormat(t *testing.T) {
	for _, magic := range []string{"BGC1", "BGC2", "BGC3"} {
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

// TestEntryBytesDeterministic: an entry is a pure function of its
// result. Fifty encodings of one paper result and of one scatternet
// result are byte-identical; the per-slave throughput maps in particular
// are written in key order, not map iteration order.
func TestEntryBytesDeterministic(t *testing.T) {
	paper := scenario.Paper(40 * time.Millisecond)
	paper.Duration = time.Second
	scatter, _ := scenario.Lookup("scatternet")
	scatter.Duration = time.Second
	for _, spec := range []scenario.Spec{paper, scatter} {
		res, err := scenario.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		key := harness.CacheKey(harness.DefaultCacheSalt, spec)
		first, err := harness.EncodeResultEntry(key, res)
		if err != nil {
			t.Fatal(err)
		}
		differ := 0
		for i := 1; i < 50; i++ {
			again, err := harness.EncodeResultEntry(key, res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, first) {
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("%s: %d of 49 re-encodings differ from the first", spec.Name, differ)
		}
	}
}

// customPolicy is a segmentation policy the entry layout has no tag for.
type customPolicy struct{ segmentation.BestFit }

func (customPolicy) Name() string { return "custom" }

// TestEncodeUnknownPolicyFails: an admitted flow whose segmentation policy
// the entry layout cannot name makes EncodeResultEntry fail — never
// silently store the flow under another policy — and a RunCache refuses
// the Put without leaving any file in its directory.
func TestEncodeUnknownPolicyFails(t *testing.T) {
	spec := scenario.Paper(40 * time.Millisecond)
	spec.Duration = 200 * time.Millisecond
	fresh, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Swap the policy on copies: the fresh result stays as the run left it.
	res := *fresh
	res.Piconets = append([]scenario.PiconetResult(nil), fresh.Piconets...)
	pr := &res.Piconets[0]
	if len(pr.Admitted) == 0 {
		t.Fatal("paper spec admitted no flow")
	}
	pr.Admitted = append([]*admission.PlannedFlow(nil), pr.Admitted...)
	custom := *pr.Admitted[0]
	custom.Request.Policy = customPolicy{}
	pr.Admitted[0] = &custom

	key := harness.CacheKey(harness.DefaultCacheSalt, spec)
	if _, err := harness.EncodeResultEntry(key, &res); err == nil || !strings.Contains(err.Error(), "policy") {
		t.Fatalf("EncodeResultEntry error = %v, want an unsupported-policy error", err)
	}
	dir := t.TempDir()
	cache := newCache(t, harness.CacheConfig{Dir: dir})
	if err := cache.Put(spec, &res); err == nil {
		t.Fatal("Put stored a result its entry cannot encode")
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Fatalf("cache directory holds %v (%v), want nothing", files, err)
	}
	// The failed Put books nothing: no store, and no copy in memory.
	if st := cache.Stats(); st.Stores != 0 || st.DupPuts != 0 {
		t.Fatalf("stats after a failed Put: %+v, want nothing stored", st)
	}
	if _, ok := cache.Get(spec); ok {
		t.Fatal("Get served the result of a failed Put")
	}
	if _, err := harness.EncodeResultEntry(key, fresh); err != nil {
		t.Fatalf("the unmodified result does not encode: %v", err)
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
// result: the flat record, its delay samples and the footer.
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
// footer check, flat record, delay samples and the rollup.
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
