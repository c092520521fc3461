package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// resetWorkload drives a randomized schedule / cancel / in-handler
// reschedule workload on s, with every handler drawing from the kernel's
// RNG, and returns one trace line per fired event: its id, the clock and
// the draw. The workload's own choices come from a separate generator
// seeded with wseed, so two kernels given the same wseed issue the same
// calls. Each handler also calls poke (when non-nil) before anything else.
// The run stops at horizon, leaving wheel and heap events pending.
func resetWorkload(t *testing.T, s *Simulator, wseed int64, horizon Time, poke func()) ([]string, []Event) {
	t.Helper()
	rng := rand.New(rand.NewSource(wseed))
	var trace []string
	var handles []Event
	randomAt := func() Time {
		base := s.Now()
		switch rng.Intn(4) {
		case 0: // on-grid, near: wheel path
			return base + Time(rng.Intn(64)+1)*SlotGrain - base%SlotGrain
		case 1: // on-grid, beyond the wheel window: heap path
			return base - base%SlotGrain + Time(wheelSlots+rng.Intn(500))*SlotGrain
		case 2: // off-grid, near
			return base + Time(rng.Intn(40_000)+1)*time.Microsecond
		default: // exactly now (same-instant FIFO)
			return base
		}
	}
	var schedule func(at Time)
	schedule = func(at Time) {
		id := len(handles)
		handles = append(handles, s.Schedule(at, func() {
			if poke != nil {
				poke()
			}
			trace = append(trace, fmt.Sprintf("%d@%v:%d", id, s.Now(), s.Rand().Int63()))
			if len(handles) < 600 {
				for n := rng.Intn(3); n > 0; n-- {
					schedule(randomAt())
				}
			}
			if rng.Intn(3) == 0 {
				handles[rng.Intn(len(handles))].Cancel()
			}
		}))
	}
	for i := 0; i < 40; i++ {
		schedule(randomAt())
	}
	if err := s.Run(horizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return trace, handles
}

// TestResetMatchesNew is the differential check behind kernel reuse: a
// kernel taken through a randomized workload and Reset(seed) must fire
// the same sequence, at the same instants, with the same RNG draws, as a
// fresh New(WithSeed(seed)) given the same calls. Every handle taken
// before the Reset must be inert: not pending, not cancelled, and a
// Cancel through it must not touch the events of the next run.
func TestResetMatchesNew(t *testing.T) {
	for i := int64(0); i < 20; i++ {
		used := New(WithSeed(1000 + i))
		_, stale := resetWorkload(t, used, 2000+i, Time(i+1)*50*time.Millisecond, nil)
		if used.Pending() == 0 {
			t.Fatalf("case %d: the first workload left nothing pending; the reset is not exercised", i)
		}
		seed := 3000 + i
		used.Reset(seed)
		if used.Now() != 0 || used.Pending() != 0 || used.Executed() != 0 {
			t.Fatalf("case %d: after Reset Now=%v Pending=%d Executed=%d, want all zero",
				i, used.Now(), used.Pending(), used.Executed())
		}
		for j, ev := range stale {
			if ev.Pending() || ev.Cancelled() || ev.At() != 0 {
				t.Fatalf("case %d: handle %d survives Reset (Pending=%v Cancelled=%v At=%v)",
					i, j, ev.Pending(), ev.Cancelled(), ev.At())
			}
		}
		// The reused kernel's handlers cancel every stale handle before
		// each event: if one reached a slot of the new run, the traces
		// would part.
		cancelStale := func() {
			for _, ev := range stale {
				ev.Cancel()
			}
		}
		horizon := 3 * time.Second
		got, _ := resetWorkload(t, used, 4000+i, horizon, cancelStale)
		fresh := New(WithSeed(seed))
		want, _ := resetWorkload(t, fresh, 4000+i, horizon, nil)
		if len(got) != len(want) {
			t.Fatalf("case %d: reset kernel fired %d events, fresh kernel %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("case %d: event %d: reset kernel %s, fresh kernel %s", i, j, got[j], want[j])
			}
		}
		if used.Now() != fresh.Now() || used.Pending() != fresh.Pending() || used.Executed() != fresh.Executed() {
			t.Fatalf("case %d: end state Now/Pending/Executed %v/%d/%d, fresh %v/%d/%d", i,
				used.Now(), used.Pending(), used.Executed(), fresh.Now(), fresh.Pending(), fresh.Executed())
		}
		if a, b := used.Rand().Int63(), fresh.Rand().Int63(); a != b {
			t.Fatalf("case %d: next draw %d, fresh kernel %d", i, a, b)
		}
	}
}

// TestResetAllocs: resetting a warmed kernel allocates nothing, so a
// pooled kernel costs a run no allocation at all.
func TestResetAllocs(t *testing.T) {
	s := New(WithSeed(7))
	resetWorkload(t, s, 7, time.Second, nil)
	allocs := testing.AllocsPerRun(20, func() { s.Reset(11) })
	if allocs != 0 {
		t.Fatalf("Reset allocates %.1f objects, want 0", allocs)
	}
}
