package poller

import (
	"math"
	"testing"
	"time"

	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// Dedicated demand-based poller behavior: the EWMA demand estimator and
// the credit scheme. The shared poller_test.go covers the busy/idle bias;
// these tests pin the estimator values and the starvation floor.

// TestDemandEWMAConverges: steady 176-byte polls drive the demand
// estimate from the optimistic prior to the true per-poll volume.
func TestDemandEWMAConverges(t *testing.T) {
	var d Demand
	v := newMockView(1)
	now := sim.Time(0)
	for i := 0; i < 50; i++ {
		s, _ := d.Next(now, v)
		now += 2500 * time.Microsecond
		d.Observe(outcomeAt(s, now, 176, false))
	}
	if got := d.demand[1]; math.Abs(got-176) > 1 {
		t.Fatalf("demand after steady traffic = %v, want ~176", got)
	}
	// Silence decays the estimate geometrically.
	for i := 0; i < 50; i++ {
		s, _ := d.Next(now, v)
		now += 2500 * time.Microsecond
		d.Observe(outcomeAt(s, now, 0, false))
	}
	if got := d.demand[1]; got > 1 {
		t.Fatalf("demand after silence = %v, want ~0", got)
	}
}

// TestDemandEWMAWeight: one observation moves the estimate by exactly
// 0.25 of the innovation.
func TestDemandEWMAWeight(t *testing.T) {
	var d Demand
	v := newMockView(1)
	s, _ := d.Next(0, v) // initialises demand to the 183-byte prior
	d.Observe(outcomeAt(s, time.Millisecond, 100, false))
	want := 0.25*100 + 0.75*183
	if got := d.demand[1]; math.Abs(got-want) > 1e-9 {
		t.Fatalf("demand = %v, want %v", got, want)
	}
}

// TestDemandCreditResetOnService: serving a slave zeroes its credit, so
// two equally loaded slaves alternate instead of one capturing the
// channel.
func TestDemandCreditResetOnService(t *testing.T) {
	var d Demand
	v := newMockView(1, 2)
	now := sim.Time(0)
	var prev piconet.SlaveID
	for i := 0; i < 20; i++ {
		s, _ := d.Next(now, v)
		if i > 0 && s == prev {
			t.Fatalf("poll %d repeated slave %d despite equal demand", i, s)
		}
		prev = s
		now += 2500 * time.Microsecond
		d.Observe(outcomeAt(s, now, 176, false))
	}
}

// TestDemandBacklogBoost: master-visible downlink backlog lifts a quiet
// slave's effective demand enough to win the next poll.
func TestDemandBacklogBoost(t *testing.T) {
	var d Demand
	v := newMockView(1, 2)
	now := sim.Time(0)
	// Drain both demand estimates to the floor.
	for i := 0; i < 60; i++ {
		s, _ := d.Next(now, v)
		now += 2500 * time.Microsecond
		d.Observe(outcomeAt(s, now, 0, false))
	}
	v.backlog[2] = 3
	s, _ := d.Next(now, v)
	if s != 2 {
		t.Fatalf("poll = %d, want backlogged slave 2", s)
	}
}

// TestDemandFloorPreventsStarvation: a fully idle slave's credit still
// grows (at the floor rate), so the gap between its polls is bounded even
// against a heavy competitor.
func TestDemandFloorPreventsStarvation(t *testing.T) {
	var d Demand
	v := newMockView(1, 2)
	now := sim.Time(0)
	lastIdle := -1
	var worstGap, gap int
	for i := 0; i < 3000; i++ {
		s, _ := d.Next(now, v)
		now += 2500 * time.Microsecond
		up := 0
		if s == 1 {
			up = 176
		} else {
			gap = i - lastIdle
			if lastIdle >= 0 && gap > worstGap {
				worstGap = gap
			}
			lastIdle = i
		}
		d.Observe(outcomeAt(s, now, up, false))
	}
	if lastIdle < 0 {
		t.Fatal("idle slave fully starved")
	}
	// Credit grows by >=1/poll against ~176/poll for the busy slave: the
	// idle slave must be served at least every ~200 polls.
	if worstGap == 0 || worstGap > 250 {
		t.Fatalf("worst idle gap = %d polls, want bounded (~180)", worstGap)
	}
}
