package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestNewStartsAtZero(t *testing.T) {
	s := New()
	if got := s.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() = %d, want 0", got)
	}
}

// TestNewDrawSequences: New without options draws the seed-1 sequence,
// and New(WithSeed(s)) draws exactly rand.NewSource(s)'s sequence.
func TestNewDrawSequences(t *testing.T) {
	for _, tc := range []struct {
		name string
		sim  *Simulator
		seed int64
	}{
		{"default", New(), 1},
		{"seed 1", New(WithSeed(1)), 1},
		{"seed 42", New(WithSeed(42)), 42},
		{"seed -7", New(WithSeed(-7)), -7},
	} {
		ref := rand.New(rand.NewSource(tc.seed))
		for i := 0; i < 1000; i++ {
			if got, want := tc.sim.Rand().Int63(), ref.Int63(); got != want {
				t.Fatalf("%s: draw %d = %d, want %d", tc.name, i, got, want)
			}
		}
	}
}

func TestScheduleAndRunOrder(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("executed %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if got := s.Now(); got != 30*time.Millisecond {
		t.Fatalf("Now() = %v, want 30ms", got)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(time.Second, func() { order = append(order, i) })
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: order[%d] = %d", i, v)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	s := New()
	var firedAt Time
	s.Schedule(5*time.Millisecond, func() {
		s.After(7*time.Millisecond, func() { firedAt = s.Now() })
	})
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if want := 12 * time.Millisecond; firedAt != want {
		t.Fatalf("nested After fired at %v, want %v", firedAt, want)
	}
}

func TestAfterNegativeClampsToNow(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(time.Millisecond, func() {
		s.After(-time.Second, func() { fired = true })
	})
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if !fired {
		t.Fatal("event scheduled with negative delay never fired")
	}
}

func TestSchedulePastReturnsNil(t *testing.T) {
	s := New()
	s.Schedule(10*time.Millisecond, func() {})
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if ev := s.Schedule(5*time.Millisecond, func() {}); ev.Pending() {
		t.Fatal("scheduling in the past should return the zero Event")
	}
	if ev := s.Schedule(s.Now(), nil); ev.Pending() {
		t.Fatal("scheduling a nil handler should return the zero Event")
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	ev := s.Schedule(time.Millisecond, func() { fired = true })
	s.Cancel(ev)
	if !ev.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Cancelling the zero Event must not panic.
	s.Cancel(Event{})
}

func TestRunHorizon(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		at := at
		s.Schedule(at, func() { fired = append(fired, at) })
	}
	if err := s.Run(2 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events before horizon, want 2 (event at horizon included)", len(fired))
	}
	if got := s.Now(); got != 2*time.Millisecond {
		t.Fatalf("Now() = %v, want exactly the horizon", got)
	}
	// The remaining event must still fire on a later Run.
	if err := s.Run(time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
}

func TestRunHorizonBeforeNow(t *testing.T) {
	s := New()
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.Run(time.Millisecond); err == nil {
		t.Fatal("Run with horizon before now should fail")
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Time(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	err := s.Run(time.Second)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("executed %d events, want 3", count)
	}
	// A subsequent Run resumes.
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if count != 10 {
		t.Fatalf("executed %d events after resume, want 10", count)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []Time {
		s := New(WithSeed(seed))
		var fired []Time
		var schedule func()
		n := 0
		schedule = func() {
			fired = append(fired, s.Now())
			n++
			if n < 200 {
				d := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
				s.After(d, schedule)
			}
		}
		s.Schedule(0, schedule)
		if err := s.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		return fired
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at event %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical event timelines")
	}
}

func TestExecutedCounter(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.Schedule(Time(i)*time.Millisecond, func() {})
	}
	ev := s.Schedule(10*time.Millisecond, func() {})
	s.Cancel(ev)
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if got := s.Executed(); got != 5 {
		t.Fatalf("Executed() = %d, want 5 (cancelled events do not count)", got)
	}
}

// TestPropertyEventsFireInOrder is a property-based test: for any set of
// random timestamps, events fire in non-decreasing time order and every
// non-cancelled event fires exactly once.
func TestPropertyEventsFireInOrder(t *testing.T) {
	f := func(raw []uint32) bool {
		s := New()
		var fired []Time
		for _, r := range raw {
			at := Time(r%1_000_000) * time.Microsecond
			s.Schedule(at, func() { fired = append(fired, s.Now()) })
		}
		if err := s.RunAll(); err != nil {
			return false
		}
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		// The multiset of fire times must equal the multiset of requested times.
		want := make([]Time, 0, len(raw))
		for _, r := range raw {
			want = append(want, Time(r%1_000_000)*time.Microsecond)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCancelSubset(t *testing.T) {
	f := func(raw []uint16, mask []bool) bool {
		s := New()
		fired := make(map[int]bool)
		events := make([]Event, len(raw))
		for i, r := range raw {
			i := i
			events[i] = s.Schedule(Time(r)*time.Microsecond, func() { fired[i] = true })
		}
		wantFired := 0
		for i := range events {
			cancel := i < len(mask) && mask[i]
			if cancel {
				s.Cancel(events[i])
			} else {
				wantFired++
			}
		}
		if err := s.RunAll(); err != nil {
			return false
		}
		if len(fired) != wantFired {
			return false
		}
		for i := range events {
			cancel := i < len(mask) && mask[i]
			if cancel == fired[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.Schedule(Time(j)*time.Microsecond, func() {})
		}
		if err := s.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEventChurn(b *testing.B) {
	// Models the piconet pattern: a handful of pending events, each firing
	// schedules the next.
	s := New()
	var next func()
	n := 0
	next = func() {
		n++
		if n < b.N {
			s.After(625*time.Microsecond, next)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Schedule(0, next)
	if err := s.RunAll(); err != nil {
		b.Fatal(err)
	}
}
