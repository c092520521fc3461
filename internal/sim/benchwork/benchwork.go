// Package benchwork defines the kernel benchmark workloads shared by the
// in-tree BenchmarkKernel* benchmarks (internal/sim) and the repository
// benchmark's sim.* layer probes (benchmark/), so both always measure
// exactly the same workloads as `go test -bench=BenchmarkKernel` — the two
// cannot drift.
//
// Each workload treats one benchmark op as one fired event and reports an
// events/s metric; the slot-aligned paths must stay at 0 allocs/op.
package benchwork

import (
	"testing"
	"time"

	"bluegs/internal/sim"
)

// reportEventsPerSec converts the op rate to an events/s metric.
func reportEventsPerSec(b *testing.B) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "events/s")
	}
}

// Churn returns the self-rescheduling single-event workload at the given
// cadence: one event in flight, each firing scheduling the next. At
// sim.SlotGrain this is the piconet steady state on the wheel path; at an
// off-grid cadence every event takes the 4-ary heap path.
func Churn(interval time.Duration) func(b *testing.B) {
	return func(b *testing.B) {
		s := sim.New()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				s.After(interval, tick)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		s.Schedule(0, tick)
		if err := s.RunAll(); err != nil {
			b.Fatal(err)
		}
		reportEventsPerSec(b)
	}
}

// OffGridInterval is a prime cadence that never lands on the slot grid,
// keeping the Churn workload on the heap path.
const OffGridInterval = 617 * time.Microsecond

// ScheduleCancel mirrors the piconet wake-supersede pattern: every fired
// event schedules a decoy, cancels it, then schedules its successor.
func ScheduleCancel(b *testing.B) {
	s := sim.New()
	n := 0
	nop := func() {}
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.Cancel(s.After(4*sim.SlotGrain, nop))
			s.After(sim.SlotGrain, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Schedule(0, tick)
	if err := s.RunAll(); err != nil {
		b.Fatal(err)
	}
	reportEventsPerSec(b)
}

// DeepHeap keeps a standing population of 1024 off-grid events while
// churning, measuring heap push/pop at realistic depth.
func DeepHeap(b *testing.B) {
	s := sim.New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.After(999*time.Microsecond, tick)
		}
	}
	for i := 0; i < 1024; i++ {
		// Far-future off-grid sentinels that never fire during the
		// measured churn.
		s.Schedule(time.Hour+sim.Time(i)*time.Microsecond, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Schedule(0, tick)
	if n < b.N {
		// Drain only the churn; the sentinels stay pending.
		if err := s.Run(time.Duration(b.N) * time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	reportEventsPerSec(b)
}

// SameSlotBatch schedules 64-event same-instant batches and drains them,
// measuring the wheel's re-heapify-free batch pop.
func SameSlotBatch(b *testing.B) {
	s := sim.New()
	nop := func() {}
	const batch = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		at := s.Now() + sim.SlotGrain
		for j := 0; j < batch; j++ {
			s.Schedule(at, nop)
		}
		if err := s.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
	reportEventsPerSec(b)
}
