package poller

import (
	"testing"
	"time"

	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// Dedicated HOL behavior: priorities by slave id and their known pathology.
// The shared poller_test.go covers the basic ordering; these tests pin
// the starvation property (the weakness the paper's GS mechanism fixes)
// and the probe fallback.

// TestHOLLowPriorityStarvation: head-of-line priority is not fair — a
// permanently active high-priority slave captures every poll while
// lower-priority slaves with queued data starve. This is the documented
// related-work weakness, so the test asserts it (a behavior change here
// would silently alter the A2 comparison).
func TestHOLLowPriorityStarvation(t *testing.T) {
	v := newMockView(1, 2)
	var h HOL
	v.backlog[1] = 1
	v.backlog[2] = 1 // slave 2 always has data too
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		s, _ := h.Next(now, v)
		if s != 1 {
			t.Fatalf("poll %d went to slave %d; HOL must capture for the top priority", i, s)
		}
		now += 2500 * time.Microsecond
		h.Observe(outcomeAt(s, now, 176, true))
	}
}

// TestHOLFallsToLowerPriorityWhenIdle: once the top-priority slave is
// believed idle (and holds no backlog), the next priority takes over.
func TestHOLFallsToLowerPriorityWhenIdle(t *testing.T) {
	v := newMockView(1, 2, 3)
	var h HOL
	s, _ := h.Next(0, v)
	if s != 1 {
		t.Fatalf("first poll = %d, want 1", s)
	}
	h.Observe(outcomeAt(1, time.Millisecond, 0, false))
	s, _ = h.Next(2*time.Millisecond, v)
	if s != 2 {
		t.Fatalf("after 1 idles, poll = %d, want 2", s)
	}
	// Backlog for 1 reinstates it immediately.
	v.backlog[1] = 1
	s, _ = h.Next(3*time.Millisecond, v)
	if s != 1 {
		t.Fatalf("backlogged top priority not reinstated: %d", s)
	}
}

// TestHOLProbesIdleRoundRobin: once every slave is believed idle, the
// probes visit everyone in turn.
func TestHOLProbesIdleRoundRobin(t *testing.T) {
	v := newMockView(1, 2, 3)
	var h HOL
	// Mark everyone idle.
	for i := 0; i < 3; i++ {
		s, _ := h.Next(sim.Time(i)*time.Millisecond, v)
		h.Observe(outcomeAt(s, sim.Time(i)*time.Millisecond+500*time.Microsecond, 0, false))
	}
	seen := map[piconet.SlaveID]int{}
	for i := 0; i < 9; i++ {
		s, _ := h.Next(sim.Time(10+i)*time.Millisecond, v)
		seen[s]++
		h.Observe(outcomeAt(s, sim.Time(10+i)*time.Millisecond+500*time.Microsecond, 0, false))
	}
	for s := piconet.SlaveID(1); s <= 3; s++ {
		if seen[s] != 3 {
			t.Fatalf("probe distribution %v not round-robin", seen)
		}
	}
}

// TestHOLMoreDataKeepsBelievedActive: an empty poll with the more-data
// flag keeps the slave in the believed-active set.
func TestHOLMoreDataKeepsBelievedActive(t *testing.T) {
	v := newMockView(1, 2)
	var h HOL
	s, _ := h.Next(0, v)
	h.Observe(Outcome{Slave: s, End: time.Millisecond, UpMoreData: true, Slots: 2})
	next, _ := h.Next(2*time.Millisecond, v)
	if next != s {
		t.Fatalf("more-data slave %d lost the poll to %d", s, next)
	}
}
