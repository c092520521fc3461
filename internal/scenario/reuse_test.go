package scenario_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"bluegs/internal/harness"
	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
)

// reuseHorizon is the horizon of the kernel-reuse gates.
const reuseHorizon = 2 * time.Second

// reuseRuns lists the registry presets, then the lifecycle specs (by
// name), at reuseHorizon: every run path the digest goldens pin.
func reuseRuns(t *testing.T) []harness.Run {
	t.Helper()
	var runs []harness.Run
	add := func(cell string, spec scenario.Spec) {
		spec.Duration = reuseHorizon
		runs = append(runs, harness.Run{Index: len(runs), Cell: cell, Spec: spec})
	}
	for _, name := range presetNames {
		spec, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("preset %q not registered", name)
		}
		add(name, spec)
	}
	lifecycle := lifecycleSpecs()
	names := make([]string, 0, len(lifecycle))
	for name := range lifecycle {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		add("lifecycle/"+name, lifecycle[name])
	}
	return runs
}

// reuseEntries executes the runs in the given order on one harness
// worker and returns every run's encoded cache entry by cell. With drain
// set, the kernel pool is emptied before every run, so each run builds
// fresh kernels.
func reuseEntries(t *testing.T, runs []harness.Run, order []int, drain bool) map[string][]byte {
	t.Helper()
	ordered := make([]harness.Run, len(order))
	for i, j := range order {
		ordered[i] = runs[j]
		ordered[i].Index = i
	}
	opts := harness.Options{Workers: 1}
	if drain {
		scenario.DrainKernels()
		opts.OnProgress = func(int, int, harness.RunResult) { scenario.DrainKernels() }
	}
	results, err := harness.Local{}.Execute(ordered, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(results))
	for _, rr := range results {
		key := harness.CacheKey(harness.DefaultCacheSalt, rr.Run.Spec)
		entry, err := harness.EncodeResultEntry(key, rr.Result)
		if err != nil {
			t.Fatalf("%s: encode: %v", rr.Run.Cell, err)
		}
		out[rr.Run.Cell] = entry
	}
	return out
}

// TestKernelReusePurity is the purity gate for pooled kernels: a run's
// cache entry must not depend on which runs used its kernels before. The
// presets and lifecycle specs run in declaration order, in two seeded
// shuffles, and with the pool drained before every run; every entry must
// be byte-equal across the four. A run that fails mid-run (its kernel
// stopped inside a handler, with events pending) must leave the next
// run's entry unchanged too.
func TestKernelReusePurity(t *testing.T) {
	runs := reuseRuns(t)
	declared := make([]int, len(runs))
	for i := range declared {
		declared[i] = i
	}
	want := reuseEntries(t, runs, declared, false)
	check := func(label string, got map[string][]byte) {
		t.Helper()
		for cell, entry := range want {
			if !bytes.Equal(got[cell], entry) {
				t.Errorf("%s: %s: cache entry differs from the declaration-order run", label, cell)
			}
		}
	}
	for _, seed := range []int64{1, 2} {
		check(fmt.Sprintf("shuffle %d", seed), reuseEntries(t, runs, rand.New(rand.NewSource(seed)).Perm(len(runs)), false))
	}
	check("drained", reuseEntries(t, runs, declared, true))

	// A timeline flow at an invalid slave stops the run at 1 s with the
	// kernel mid-handler; the same spec without it must still encode as
	// it did above.
	good, ok := scenario.Lookup("paper-fig4")
	if !ok {
		t.Fatal("preset paper-fig4 not registered")
	}
	good.Duration = reuseHorizon
	bad := good
	bad.Timeline = []scenario.TimelineEvent{scenario.AddBEAt(time.Second,
		scenario.BEFlow{ID: 77, Slave: 9, Dir: piconet.Down, RateKbps: 20, PacketSize: 176})}
	results, err := harness.Local{}.Execute([]harness.Run{
		{Index: 0, Cell: "bad", Spec: bad},
		{Index: 1, Cell: "paper-fig4", Spec: good},
	}, harness.Options{Workers: 1})
	if err == nil || results[0].Err == nil {
		t.Fatalf("the failing spec ran to completion (err %v); the gate needs a mid-run failure", err)
	}
	if results[1].Err != nil {
		t.Fatalf("good run after a failed one: %v", results[1].Err)
	}
	entry, err := harness.EncodeResultEntry(harness.CacheKey(harness.DefaultCacheSalt, good), results[1].Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(entry, want["paper-fig4"]) {
		t.Error("paper-fig4 after a failed run: cache entry differs from the declaration-order run")
	}
}

// steadyStateSlack is the allowed allocation growth from a 2 s to a 20 s
// run of a preset whose model does not grow with the horizon. It is not
// zero because packet pools and flow queues grow geometrically to the
// deepest backlog a run reaches, and a longer run can reach a deeper one:
// scatternet, whose co-channel losses queue packets, grows by about 20
// allocations this way.
const steadyStateSlack = 32

// steadyStateGrowers are the presets whose allocations grow with the
// horizon because their model does, with the cause.
var steadyStateGrowers = map[string]string{
	// A saturated best-effort backlog: every queued packet is a fresh
	// hlPacket and segmentation plan (allocPacket, AppendBestFit), and
	// the backlog keeps growing over the run.
	"baseline-round-robin": "growing best-effort backlog",
	"paper-fig4":           "growing best-effort backlog",
	// The fault schedule is derived from the preset's 12 s horizon: the
	// second outage (10.6 s) falls inside 20 s but not 2 s, and its
	// suspension, re-plan and renegotiation or handoff rebuild streams
	// and flow state (core.buildStreams, newFlowState).
	"faults-degrade": "outage episodes the 2 s run does not reach",
	"faults-handoff": "outage episodes the 2 s run does not reach",
}

// steadyStateGrowth returns the cause of a preset's expected growth, or
// "" for a preset held to steadyStateSlack.
func steadyStateGrowth(name string) string {
	if strings.HasPrefix(name, "churn") {
		// The Poisson arrival timeline spans 60 s: a 20 s run admits
		// and releases more GS sessions than a 2 s one, each re-planning
		// (core.buildStreams) and installing flow state (newFlowState).
		return "GS arrivals the 2 s run does not reach"
	}
	return steadyStateGrowers[name]
}

// mallocs counts the heap allocations of one run.
func mallocs(t *testing.T, spec scenario.Spec) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := scenario.Run(spec); err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSteadyStateAllocs: with the kernel pool warm, a run allocates for
// its setup and for what its model grows, not for simulated time. Every
// preset runs at 2 s and 20 s on 1 and 2 kernel workers; the 20 s run may
// allocate at most steadyStateSlack more, except for the presets whose
// model grows with the horizon, which must still grow (or their
// exception is stale).
func TestSteadyStateAllocs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, name := range presetNames {
			spec, ok := scenario.Lookup(name)
			if !ok {
				t.Fatalf("preset %q not registered", name)
			}
			spec.KernelWorkers = workers
			count := func(d time.Duration) int64 {
				spec.Duration = d
				mallocs(t, spec) // warm the pool and every lazy cache
				n := mallocs(t, spec)
				if m := mallocs(t, spec); m < n {
					n = m
				}
				return int64(n)
			}
			short, long := count(2*time.Second), count(20*time.Second)
			growth := long - short
			cause := steadyStateGrowth(name)
			switch {
			case cause == "" && growth > steadyStateSlack:
				t.Errorf("%s at %d workers: %d allocations at 20 s, %d at 2 s: grows by %d, more than %d",
					name, workers, long, short, growth, steadyStateSlack)
			case cause != "" && growth <= steadyStateSlack:
				t.Errorf("%s at %d workers: grows by only %d allocations; drop its exception (%s)",
					name, workers, growth, cause)
			}
		}
	}
}

// TestPooledKernelsHoldNoRun: a kernel waits in the pool already reset,
// so it keeps none of its finished run's pending events, whose closures
// reach that run's piconets, sources and delay samples; otherwise the
// heap a pooled kernel pins would depend on when the collector empties
// the pool. (The race detector drops pool entries at random, so the run
// repeats until the pool holds a kernel.)
func TestPooledKernelsHoldNoRun(t *testing.T) {
	spec, ok := scenario.Lookup("scatternet-pair")
	if !ok {
		t.Fatal(`preset "scatternet-pair" not registered`)
	}
	spec.Duration = reuseHorizon
	var pooled int
	for try := 0; try < 16 && pooled == 0; try++ {
		scenario.DrainKernels()
		if _, err := scenario.Run(spec); err != nil {
			t.Fatal(err)
		}
		for _, s := range scenario.PooledKernels() {
			pooled++
			if s.Now() != 0 || s.Pending() != 0 || s.Executed() != 0 {
				t.Errorf("pooled kernel at %v with %d pending, %d executed: not reset",
					s.Now(), s.Pending(), s.Executed())
			}
		}
	}
	if pooled == 0 {
		t.Fatal("no run returned a kernel to the pool")
	}
}
