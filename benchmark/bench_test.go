package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// toySize shrinks every workload and probe so the smoke tests finish in
// seconds, even under the race detector.
var toySize = sizes{
	catalogueHorizon: 2 * time.Second,
	scatterHorizon:   2 * time.Second,
	scatterReps:      1,
	replayHorizon:    2 * time.Second,
	replayReps:       1,
	fabricHorizon:    2 * time.Second,
	fabricReps:       1,
	setupRepeats:     1,
	probeReps:        1,
	probeOps:         40,
	probeHorizon:     2 * time.Second,
	probeFabricReps:  1,
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// smoke runs one toy-size invocation and returns its printed result line.
func smoke(t *testing.T, w workload, trace bool) result {
	t.Helper()
	o := options{workload: w.name, seed: 1, seconds: 0.001, trace: trace,
		workdir: t.TempDir(), size: toySize}
	o.spans = filepath.Join(o.workdir, "spans.json")
	var out bytes.Buffer
	rep, err := execute(o, w, &out)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if err := printResult(&out, rep); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v", w.name, lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", w.name, res.Correct, res.Attempted, res.Failed, rep.Failures)
	}
	if trace {
		if _, err := os.Stat(o.spans); err != nil {
			t.Fatalf("%s: spans not written: %v", w.name, err)
		}
	}
	return res
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks that each metric BENCHMARK.json declares prints a finite value in
// its unit, with no failed run or check.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := smoke(t, w, false)
			for _, m := range b.EndToEnd {
				assertMetric(t, res, m.Name, m.Unit)
			}
			res = smoke(t, w, true)
			for _, m := range b.PerLayer {
				assertMetric(t, res, m.Name, m.Unit)
			}
		})
	}
}

func assertMetric(t *testing.T, res result, name, unit string) {
	t.Helper()
	v, ok := res.Metrics[name]
	switch {
	case !ok:
		t.Errorf("metric %s missing", name)
	case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
		t.Errorf("metric %s = %v", name, v.Value)
	case v.Unit != unit:
		t.Errorf("metric %s unit %q, want %q", name, v.Unit, unit)
	}
}

// TestCorruptCacheEntryFails damages one entry of the replay workload's
// disk cache: the iteration still returns correct results (the run is
// simulated again), but the all-hits check fails, so the failure ratio
// rises above zero.
func TestCorruptCacheEntryFails(t *testing.T) {
	e := env{seed: 1, size: toySize, dir: t.TempDir(), workers: poolWorkers}
	inst, err := setupReplay(e)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	entries, err := filepath.Glob(filepath.Join(inst.(*replay).dir, "*.run.gob"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries (%v)", err)
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(entries[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	x := newExecutor(nil)
	out, err := inst.iterate(x)
	if err != nil {
		t.Fatal(err)
	}
	checks, _ := inst.verify(out)
	var tl tally
	tl.iteration("corrupt", x, nil, checks)
	if tl.failed == 0 || tl.attempted == 0 {
		t.Fatalf("fail ratio %d/%d, want > 0", tl.failed, tl.attempted)
	}
}

// TestReferenceAllocatesNothing holds the reference loop to what the host
// times rely on: after its first pass, no pass allocates, so the garbage
// collector's pacing never reaches it.
func TestReferenceAllocatesNothing(t *testing.T) {
	r := newRefLoop()
	r.pass()
	if n := testing.AllocsPerRun(2, r.pass); n != 0 {
		t.Fatalf("a reference pass allocates %v times", n)
	}
}

// TestBenchmarkJSONMatchesCode checks BENCHMARK.json's shape, that its
// workloads and metrics are exactly the ones this package declares, and
// that every per-layer metric maps to an end-to-end metric and a workload
// that exist.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", b.RunSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("paths %q", b.Paths)
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		use(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json %q/%q, code %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(b.EndToEnd), len(endToEnd))
	}
	var setupBound, maxOther float64
	e2e := map[string]bool{}
	for i, m := range b.EndToEnd {
		use(m.Name)
		e2e[m.Name] = true
		got := metric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
		if got != endToEnd[i] {
			t.Errorf("end-to-end %d: json %+v, code %+v", i, got, endToEnd[i])
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("end-to-end %s: bad unit, direction or bound", m.Name)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		use(m.Name)
		l := perLayer[i]
		got := metric{Name: m.Name, Unit: m.Unit, Better: m.Better}
		if got != l.metric {
			t.Errorf("per-layer %d: json %+v, code %+v", i, got, l.metric)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: bad unit or direction", m.Name)
		}
		// The layer map: each layer metric names the end-to-end metric and
		// the workload it should move.
		if _, ok := workloadByName(l.workload); !ok || !e2e[l.moves] {
			t.Errorf("per-layer %s moves %q on %q: no such end-to-end metric or workload", m.Name, l.moves, l.workload)
		}
	}
}

// TestSweepSeed checks that -seed keeps its value inside the verified range
// and folds every other value into it.
func TestSweepSeed(t *testing.T) {
	for seed, want := range map[int64]int64{
		1: 1, 2: 2, verifiedSeeds: verifiedSeeds, verifiedSeeds + 1: 1,
		0: verifiedSeeds, -1: verifiedSeeds - 1, 100024: 100024 % verifiedSeeds,
	} {
		if got := sweepSeed(seed); got != want {
			t.Errorf("sweepSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}

// TestRunRejectsBadFlags checks the command line's error paths.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "catalogue", "-trace", "2"},
		{"-workload", "catalogue", "-seconds", "0"},
		{"-workload", "catalogue", "extra"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q", args, out.String())
		}
	}
}
