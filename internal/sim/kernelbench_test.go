package sim_test

import (
	"testing"

	"bluegs/internal/sim"
	"bluegs/internal/sim/benchwork"
)

// Kernel microbenchmarks: schedule/fire/cancel churn through both routing
// paths. The workloads live in benchwork so the repository benchmark's
// sim.* layer probes (benchmark/) measure exactly the same code; the
// slot-aligned paths must stay at 0 allocs/op in steady state.

// BenchmarkKernelSlotChurn is the piconet steady state: one slot-aligned
// event in flight, each firing scheduling the next. Wheel path, 0 allocs.
func BenchmarkKernelSlotChurn(b *testing.B) {
	benchwork.Churn(sim.SlotGrain)(b)
}

// BenchmarkKernelOffGridChurn is the same churn at an off-grid cadence,
// forcing every event through the 4-ary heap.
func BenchmarkKernelOffGridChurn(b *testing.B) {
	benchwork.Churn(benchwork.OffGridInterval)(b)
}

// BenchmarkKernelScheduleCancel measures cancel churn: every fired event
// schedules a decoy, cancels it, then schedules its successor — the
// piconet's wake-supersede pattern.
func BenchmarkKernelScheduleCancel(b *testing.B) {
	benchwork.ScheduleCancel(b)
}

// BenchmarkKernelDeepHeap keeps a standing population of 1024 off-grid
// events while churning, measuring heap push/pop at realistic depth.
func BenchmarkKernelDeepHeap(b *testing.B) {
	benchwork.DeepHeap(b)
}

// BenchmarkKernelSameSlotBatch schedules 64-event same-instant batches and
// drains them, measuring the wheel's re-heapify-free batch pop.
func BenchmarkKernelSameSlotBatch(b *testing.B) {
	benchwork.SameSlotBatch(b)
}
