package poller

import (
	"testing"
	"time"

	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// Dedicated EDC behavior: the double-cycle economics. The shared
// poller_test.go covers the basic backoff/reset; these tests pin the
// starvation and adaptation properties.

// TestEDCIdleSlaveNotStarved: while a loaded slave dominates the active
// cycle, the idle cycle still probes a long-idle slave whenever the
// active set momentarily drains — exponentially rarely, but never cut off
// entirely.
func TestEDCIdleSlaveNotStarved(t *testing.T) {
	v := newMockView(1, 2)
	var e EDC
	now := sim.Time(0)
	polls := map[piconet.SlaveID]int{}
	for i := 0; i < 2000; i++ {
		s, ok := e.Next(now, v)
		if !ok {
			t.Fatal("no slave")
		}
		polls[s]++
		now += 2 * 625 * time.Microsecond
		up := 0
		if s == 1 && polls[1]%4 != 0 {
			up = 176 // slave 1 busy, with a pause every 4th poll
		}
		e.Observe(outcomeAt(s, now, up, up > 0))
	}
	if polls[2] == 0 {
		t.Fatal("idle slave fully starved")
	}
	if polls[2] >= polls[1]/4 {
		t.Fatalf("idle slave polled %d vs busy %d; backoff not economising", polls[2], polls[1])
	}
}

// TestEDCActiveCycleRoundRobin: two loaded slaves share the active cycle
// alternately (ring order, no capture).
func TestEDCActiveCycleRoundRobin(t *testing.T) {
	v := newMockView(1, 2)
	var e EDC
	now := sim.Time(0)
	var prev piconet.SlaveID
	for i := 0; i < 10; i++ {
		s, _ := e.Next(now, v)
		if i > 0 && s == prev {
			t.Fatalf("poll %d repeated slave %d; active cycle not rotating", i, s)
		}
		prev = s
		now += 2500 * time.Microsecond
		e.Observe(outcomeAt(s, now, 176, true))
	}
}

// TestEDCIntervalCapped: fruitless probes back off exponentially but stop
// at 100 ms.
func TestEDCIntervalCapped(t *testing.T) {
	v := newMockView(1)
	maxIv := 100 * time.Millisecond
	var e EDC
	now := sim.Time(0)
	for i := 0; i < 20; i++ {
		s, _ := e.Next(now, v)
		now += 1250 * time.Microsecond
		e.Observe(outcomeAt(s, now, 0, false))
		now += e.interval[1]
	}
	if e.interval[1] != maxIv {
		t.Fatalf("interval = %v, want capped at %v", e.interval[1], maxIv)
	}
}

// TestEDCMoreDataKeepsActive: a poll that carries nothing but signals
// more-data keeps the slave in the active cycle.
func TestEDCMoreDataKeepsActive(t *testing.T) {
	v := newMockView(1)
	var e EDC
	s, _ := e.Next(0, v)
	e.Observe(Outcome{Slave: s, End: time.Millisecond, UpMoreData: true, Slots: 2})
	if !e.busy[s] {
		t.Fatal("more-data outcome demoted the slave")
	}
	if e.interval[s] != 2*piconet.DecisionInterval {
		t.Fatalf("interval = %v, want min", e.interval[s])
	}
}

// TestEDCDownBacklogReactivates: master-visible backlog promotes an idle
// slave into the active cycle before its probe is due.
func TestEDCDownBacklogReactivates(t *testing.T) {
	v := newMockView(1, 2)
	var e EDC
	// Demote both slaves.
	now := sim.Time(0)
	for i := 0; i < 2; i++ {
		s, _ := e.Next(now, v)
		now += 1250 * time.Microsecond
		e.Observe(outcomeAt(s, now, 0, false))
	}
	// Neither probe is due for a long time, but backlog appears for 2.
	v.backlog[2] = 1
	s, ok := e.Next(now, v)
	if !ok || s != 2 {
		t.Fatalf("Next = %d (%v), want backlogged slave 2", s, ok)
	}
}

// TestEDCDefaultBounds: the probe interval starts at 2 slot pairs, and a
// slave first seen after the first Next backs off from the same floor.
func TestEDCDefaultBounds(t *testing.T) {
	v := newMockView(1)
	var e EDC
	s, _ := e.Next(0, v)
	if e.interval[s] != 2*piconet.DecisionInterval {
		t.Fatalf("first interval = %v, want 2 slot pairs", e.interval[s])
	}
	v.slaves = append(v.slaves, 2)
	e.Observe(outcomeAt(2, time.Millisecond, 0, false))
	if e.interval[2] != 2*piconet.DecisionInterval {
		t.Fatalf("late slave's interval = %v, want 2 slot pairs", e.interval[2])
	}
}
