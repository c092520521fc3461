package harness_test

import (
	"runtime"
	"testing"
	"time"

	"bluegs/internal/harness"
	"bluegs/internal/scenario"
)

// scatterRun is a multi-piconet run whose simulation shards one kernel
// per piconet — the workload of the KernelWorkers cache tests.
func scatterRun() []harness.Run {
	spec := scenario.Scatternet(scenario.ScatternetConfig{
		Piconets: 3,
		Duration: 2 * time.Second,
	})
	return []harness.Run{{Index: 0, Cell: "scatter", Spec: spec}}
}

// TestKernelWorkersPureExecutionKnob: simulating the same spec at
// different kernel worker counts produces byte-identical reports, and
// Options.KernelWorkers never leaks into the stored result's spec.
func TestKernelWorkersPureExecutionKnob(t *testing.T) {
	ref, err := harness.Execute(scatterRun(), harness.Options{KernelWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, kw := range []int{2, runtime.GOMAXPROCS(0)} {
		got, err := harness.Execute(scatterRun(), harness.Options{KernelWorkers: kw})
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Result.Report().String() != ref[0].Result.Report().String() {
			t.Fatalf("kernel workers=%d: report diverged from kernel workers=1", kw)
		}
		if got[0].Result.Spec.KernelWorkers != 0 {
			t.Fatalf("kernel workers=%d: Result.Spec.KernelWorkers = %d, want 0",
				kw, got[0].Result.Spec.KernelWorkers)
		}
	}
}

// TestCacheReplayAcrossKernelWorkers: a sweep warmed at one kernel
// worker count replays from the cache at any other — the fingerprint
// ignores the knob — and the replayed bytes match a fresh simulation.
func TestCacheReplayAcrossKernelWorkers(t *testing.T) {
	cache := newCache(t, harness.CacheConfig{Dir: t.TempDir()})
	cold, err := harness.Execute(scatterRun(), harness.Options{Cache: cache, KernelWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cold[0].CacheHit {
		t.Fatal("cold run reported a cache hit")
	}
	warm, err := harness.Execute(scatterRun(), harness.Options{Cache: cache, KernelWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !warm[0].CacheHit {
		t.Fatal("run at another kernel worker count missed the warm cache")
	}
	fresh, err := harness.Execute(scatterRun(), harness.Options{KernelWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	coldR := cold[0].Result.Report().String()
	if warm[0].Result.Report().String() != coldR {
		t.Fatal("cache replay diverged from the run that warmed it")
	}
	if fresh[0].Result.Report().String() != coldR {
		t.Fatal("fresh simulation at 4 kernel workers diverged from the cached bytes")
	}
}
