package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// shardTrace runs a ShardSet of n self-rescheduling RNG-driven shards
// coupled through the exchange hook, and returns a trace of every fired
// event: the determinism witness the worker-count tests compare byte for
// byte. Each shard counts the events it fires in an epoch; at every
// barrier the hook hands each count to the next shard as an event
// scheduled at the boundary, which draws from the receiving shard's RNG
// and so steers that shard's later draws.
func shardTrace(t *testing.T, n, workers int, horizon, epoch Time) (string, []uint64) {
	t.Helper()
	shards := make([]*Simulator, n)
	for i := range shards {
		shards[i] = New(WithSeed(int64(1000 + i)))
	}
	// One trace buffer and one epoch counter per shard: every write
	// happens on the owning shard's goroutine while an epoch runs, or in
	// the single-threaded hook at a barrier, and the buffers concatenate
	// in shard order afterwards.
	traces := make([]strings.Builder, n)
	fired := make([]int, n)
	for i := range shards {
		i := i
		s := shards[i]
		var tick func()
		tick = func() {
			fmt.Fprintf(&traces[i], "s%d@%v r%d\n", i, s.Now(), s.Rand().Intn(1000))
			fired[i]++
			s.After(time.Duration(1+s.Rand().Intn(7))*time.Millisecond, tick)
		}
		s.Schedule(0, tick)
	}
	errs := NewShardSet(shards...).RunEpochs(horizon, epoch, workers, func(end Time) {
		for src := range shards {
			dst, k := (src+1)%n, fired[src]
			fired[src] = 0
			shards[dst].Schedule(end, func() {
				fmt.Fprintf(&traces[dst], "xchg s%d->s%d@%v k%d r%d\n",
					src, dst, shards[dst].Now(), k, shards[dst].Rand().Intn(1000))
			})
		}
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	counts := make([]uint64, n)
	var trace strings.Builder
	for i, s := range shards {
		if s.Now() != horizon {
			t.Fatalf("shard %d stopped at %v, want %v", i, s.Now(), horizon)
		}
		counts[i] = s.Executed()
		trace.WriteString(traces[i].String())
	}
	return trace.String(), counts
}

// TestShardSetDeterministicAcrossWorkers is the kernel-level determinism
// spec: the full event trace — firing order, clock stamps, RNG draws,
// exchange deliveries — must be byte-identical at any worker count.
func TestShardSetDeterministicAcrossWorkers(t *testing.T) {
	const n = 5
	horizon, epoch := 200*time.Millisecond, 25*time.Millisecond
	refTrace, refCounts := shardTrace(t, n, 1, horizon, epoch)
	for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0), 16} {
		got, counts := shardTrace(t, n, workers, horizon, epoch)
		if got != refTrace {
			t.Fatalf("workers=%d: trace diverged from workers=1", workers)
		}
		for i := range counts {
			if counts[i] != refCounts[i] {
				t.Fatalf("workers=%d: shard %d executed %d events, want %d",
					workers, i, counts[i], refCounts[i])
			}
		}
	}
}

// TestShardSetEpochChainEquivalence: driving one shard through many
// epochs must execute exactly the events a single Run to the horizon
// would (the chained-Run contract the epoch loop is built on).
func TestShardSetEpochChainEquivalence(t *testing.T) {
	build := func() *Simulator {
		s := New(WithSeed(7))
		var tick func()
		tick = func() {
			s.After(time.Duration(1+s.Rand().Intn(9))*time.Millisecond, tick)
		}
		s.Schedule(0, tick)
		return s
	}
	ref := build()
	if err := ref.Run(time.Second); err != nil {
		t.Fatalf("single run: %v", err)
	}
	sharded := build()
	ss := NewShardSet(sharded)
	for _, err := range ss.RunEpochs(time.Second, 10*time.Millisecond, 1, nil) {
		if err != nil {
			t.Fatalf("epochs: %v", err)
		}
	}
	if sharded.Executed() != ref.Executed() || sharded.Now() != ref.Now() {
		t.Fatalf("epoch chain executed %d events to %v, single run %d to %v",
			sharded.Executed(), sharded.Now(), ref.Executed(), ref.Now())
	}
}

// TestShardSetExchangeBarrier: the exchange hook must run after every
// epoch with all shard clocks parked at the boundary.
func TestShardSetExchangeBarrier(t *testing.T) {
	shards := []*Simulator{New(), New(), New()}
	for _, s := range shards {
		s := s
		var tick func()
		tick = func() { s.After(time.Millisecond, tick) }
		s.Schedule(0, tick)
	}
	ss := NewShardSet(shards...)
	var boundaries []Time
	errs := ss.RunEpochs(100*time.Millisecond, 30*time.Millisecond, 2, func(end Time) {
		for i, s := range shards {
			if s.Now() != end {
				t.Fatalf("shard %d clock %v at barrier %v", i, s.Now(), end)
			}
		}
		boundaries = append(boundaries, end)
	})
	for _, err := range errs {
		if err != nil {
			t.Fatalf("epochs: %v", err)
		}
	}
	want := []Time{30 * time.Millisecond, 60 * time.Millisecond, 90 * time.Millisecond, 100 * time.Millisecond}
	if len(boundaries) != len(want) {
		t.Fatalf("exchange ran at %v, want %v", boundaries, want)
	}
	for i := range want {
		if boundaries[i] != want[i] {
			t.Fatalf("exchange ran at %v, want %v", boundaries, want)
		}
	}
}

// TestShardSetPanicContained: a panicking handler fails its own shard
// with a *PanicError carrying the value and stack; the other shards
// finish the epoch normally.
func TestShardSetPanicContained(t *testing.T) {
	for _, workers := range []int{1, 2} {
		a, b := New(), New()
		fired := false
		a.Schedule(10*time.Millisecond, func() { panic("boom") })
		b.Schedule(20*time.Millisecond, func() { fired = true })
		errs := NewShardSet(a, b).RunEpochs(50*time.Millisecond, 25*time.Millisecond, workers, nil)
		var pe *PanicError
		if !errors.As(errs[0], &pe) || pe.Shard != 0 || pe.Value != "boom" {
			t.Fatalf("workers=%d: shard 0 error = %v, want contained panic", workers, errs[0])
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: contained panic lost its stack", workers)
		}
		if errs[1] != nil {
			t.Fatalf("workers=%d: shard 1 error = %v, want nil", workers, errs[1])
		}
		if !fired {
			t.Fatalf("workers=%d: healthy shard did not finish the abort epoch", workers)
		}
	}
}

// TestShardSetStopAborts: Stop in one shard surfaces ErrStopped and ends
// the run at the epoch barrier; the set of fired events stays
// worker-count independent because every other shard completes the epoch.
func TestShardSetStopAborts(t *testing.T) {
	a, b := New(), New()
	a.Schedule(5*time.Millisecond, func() { a.Stop() })
	late := false
	b.Schedule(40*time.Millisecond, func() { late = true })
	errs := NewShardSet(a, b).RunEpochs(100*time.Millisecond, 25*time.Millisecond, 1, nil)
	if !errors.Is(errs[0], ErrStopped) {
		t.Fatalf("shard 0 error = %v, want ErrStopped", errs[0])
	}
	if late {
		t.Fatal("epoch after the abort barrier still ran")
	}
}

// TestShardSetRaceHammer drives many shards hot across many short epochs
// with an exchange hook that reads per-shard state written during the
// epoch and schedules events into random shards — the -race acceptance
// test for the epoch-exchange path.
func TestShardSetRaceHammer(t *testing.T) {
	const n = 8
	shards := make([]*Simulator, n)
	for i := range shards {
		shards[i] = New(WithSeed(int64(i + 1)))
	}
	outbox := make([]int, n)
	for i := range shards {
		i := i
		s := shards[i]
		var tick func()
		tick = func() {
			if s.Rand().Intn(4) == 0 {
				outbox[i]++
			}
			s.After(time.Duration(1+s.Rand().Intn(3))*time.Millisecond, tick)
		}
		s.Schedule(0, tick)
	}
	snapshot := make([]uint64, n)
	errs := NewShardSet(shards...).RunEpochs(300*time.Millisecond, 5*time.Millisecond, runtime.GOMAXPROCS(0)+2,
		func(end Time) {
			for i, s := range shards {
				snapshot[i] = s.Executed()
				for ; outbox[i] > 0; outbox[i]-- {
					shards[s.Rand().Intn(n)].Schedule(end, func() {})
				}
			}
		})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	for i, s := range shards {
		// The final barrier's deliveries land at the horizon, after the
		// last epoch ran: they stay pending, so the snapshot is exact.
		if snapshot[i] != s.Executed() {
			t.Fatalf("shard %d: final exchange snapshot %d != executed %d",
				i, snapshot[i], s.Executed())
		}
	}
}

// TestShardSetEmptyAndSingle: degenerate sets run without epochs or
// goroutine machinery.
func TestShardSetEmptyAndSingle(t *testing.T) {
	if errs := NewShardSet().RunEpochs(time.Second, 0, 4, nil); len(errs) != 0 {
		t.Fatalf("empty set returned %d errors", len(errs))
	}
	s := New()
	fired := false
	s.Schedule(time.Millisecond, func() { fired = true })
	errs := NewShardSet(s).RunEpochs(time.Second, 0, 4, nil)
	if errs[0] != nil || !fired || s.Now() != time.Second {
		t.Fatalf("single-shard set: errs=%v fired=%v now=%v", errs, fired, s.Now())
	}
}

// TestRunEpochsAllocs: driving shards on worker goroutines allocates per
// call (the goroutines, the channels), never per epoch, so a long run
// costs no more allocations than a short one.
func TestRunEpochsAllocs(t *testing.T) {
	const n = 3
	shards := make([]*Simulator, n)
	ticks := make([]func(), n)
	for i := range shards {
		s := New(WithSeed(int64(i + 1)))
		shards[i] = s
		ticks[i] = func() { s.After(SlotGrain, ticks[i]) }
	}
	ss := NewShardSet(shards...)
	allocs := func(epochs int) float64 {
		return testing.AllocsPerRun(10, func() {
			for i, s := range shards {
				s.Reset(int64(i + 1))
				s.Schedule(0, ticks[i])
			}
			ss.RunEpochs(Time(epochs)*25*time.Millisecond, 25*time.Millisecond, 2, nil)
		})
	}
	allocs(4) // warm the slabs
	short, long := allocs(4), allocs(400)
	if long > short {
		t.Fatalf("RunEpochs at 2 workers: %.1f allocations over 400 epochs, %.1f over 4; want no growth", long, short)
	}
}
