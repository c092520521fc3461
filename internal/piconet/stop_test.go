package piconet_test

import (
	"errors"
	"testing"
	"time"

	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// TestEnqueuePacketAtFutureUpFlow pre-enqueues a burst of future up-flow
// arrivals in one call sequence and checks the master cannot serve a
// packet before its arrival stamp.
func TestEnqueuePacketAtFutureUpFlow(t *testing.T) {
	s := sim.New()
	p := buildBE(t, s)
	sched := &rrScheduler{slaves: []piconet.SlaveID{1}}
	p.SetScheduler(sched)
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Three future arrivals, spaced 10 ms apart, all enqueued at t=0.
	for i := 1; i <= 3; i++ {
		if err := p.EnqueuePacketAt(2, 27, time.Duration(i)*10*time.Millisecond); err != nil {
			t.Fatalf("EnqueuePacketAt: %v", err)
		}
	}
	if err := s.Run(5 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d, _ := p.FlowDelivered(2); d.Packets() != 0 {
		t.Fatalf("delivered %d packets before any arrival", d.Packets())
	}
	if err := s.Run(50 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	d, _ := p.FlowDelivered(2)
	if d.Packets() != 3 {
		t.Fatalf("delivered %d packets, want 3", d.Packets())
	}
	// Delay is measured from the arrival stamp, not the enqueue call:
	// a DH1-sized packet polled every exchange completes within ~10 ms.
	delay, _ := p.FlowDelayStats(2)
	if delay.Max() > 10*time.Millisecond {
		t.Fatalf("max delay %v implies delay measured from enqueue, not arrival", delay.Max())
	}
}

// TestEnqueuePacketAtFutureDownFlowNotifiesAtArrival checks a future
// down-flow arrival reaches the scheduler exactly at its arrival instant.
func TestEnqueuePacketAtFutureDownFlowNotifiesAtArrival(t *testing.T) {
	s := sim.New()
	p := buildBE(t, s)
	sched := &rrScheduler{slaves: []piconet.SlaveID{1}}
	p.SetScheduler(sched)
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := p.EnqueuePacketAt(1, 27, 20*time.Millisecond); err != nil {
		t.Fatalf("EnqueuePacketAt: %v", err)
	}
	if err := s.Run(10 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := p.DownHeadAvailable(1, s.Now()); got {
		t.Fatal("future packet reads as available before arrival")
	}
	if err := s.Run(40 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	d, _ := p.FlowDelivered(1)
	if d.Packets() != 1 {
		t.Fatalf("delivered %d packets, want 1", d.Packets())
	}
}

func TestEnqueuePacketAtRejectsOutOfOrderArrivals(t *testing.T) {
	s := sim.New()
	p := buildBE(t, s)
	if err := p.EnqueuePacketAt(2, 27, 20*time.Millisecond); err != nil {
		t.Fatalf("EnqueuePacketAt: %v", err)
	}
	if err := p.EnqueuePacketAt(2, 27, 10*time.Millisecond); !errors.Is(err, piconet.ErrInvalidFlow) {
		t.Fatalf("out-of-order arrival: err = %v", err)
	}
	if err := p.EnqueuePacketAt(2, 27, -time.Millisecond); !errors.Is(err, piconet.ErrInvalidFlow) {
		t.Fatalf("past arrival: err = %v", err)
	}
}

// TestStopHaltsPolling removes a piconet's master from service mid-run:
// no further exchanges happen, statistics stay readable, and an enqueue
// after Stop cannot wake it.
func TestStopHaltsPolling(t *testing.T) {
	s := sim.New()
	p := buildBE(t, s)
	sched := &rrScheduler{slaves: []piconet.SlaveID{1}}
	p.SetScheduler(sched)
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := p.EnqueuePacket(2, 27); err != nil {
			t.Fatalf("EnqueuePacket: %v", err)
		}
	}
	s.Schedule(10*time.Millisecond, p.Stop)
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !p.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	d, _ := p.FlowDelivered(2)
	delivered := d.Packets()
	if delivered == 0 {
		t.Fatal("nothing delivered before Stop")
	}
	if delivered == 10 {
		t.Fatal("all packets delivered despite Stop at 10ms")
	}
	// Post-stop enqueues are accepted (the flow exists) but never served.
	if err := p.EnqueuePacket(1, 27); err != nil {
		t.Fatalf("EnqueuePacket after Stop: %v", err)
	}
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d, _ := p.FlowDelivered(2); d.Packets() != delivered {
		t.Fatalf("deliveries advanced after Stop: %d -> %d", delivered, d.Packets())
	}
	if p.Err() != nil {
		t.Fatalf("engine error after Stop: %v", p.Err())
	}
}

// TestRetireFlowUncountsFutureArrivals: batched sources pre-count future
// packets in the offered meter; retiring the flow before they arrive
// must uncount them (the per-packet path would never have generated
// them).
func TestRetireFlowUncountsFutureArrivals(t *testing.T) {
	s := sim.New()
	p := buildBE(t, s)
	if err := p.EnqueuePacketAt(2, 27, 0); err != nil {
		t.Fatalf("EnqueuePacketAt: %v", err)
	}
	for i := 1; i <= 5; i++ {
		if err := p.EnqueuePacketAt(2, 27, time.Duration(i)*10*time.Millisecond); err != nil {
			t.Fatalf("EnqueuePacketAt: %v", err)
		}
	}
	off, _ := p.FlowOffered(2)
	if off.Packets() != 6 {
		t.Fatalf("offered %d packets, want 6 pre-counted", off.Packets())
	}
	// Retire at t=0: only the packet that already arrived stays offered.
	if err := p.RetireFlow(2); err != nil {
		t.Fatalf("RetireFlow: %v", err)
	}
	if off.Packets() != 1 {
		t.Fatalf("offered %d packets after retire, want 1", off.Packets())
	}
	if off.Bytes() != 27 {
		t.Fatalf("offered %d bytes after retire, want 27", off.Bytes())
	}
}

// TestStopIdempotent: double-Stop (before, during and after the run) is
// a no-op, and post-Stop interactions — Kick, enqueues, suspends — never
// panic or restart the decision loop.
func TestStopIdempotent(t *testing.T) {
	s := sim.New()
	p := buildBE(t, s)
	sched := &rrScheduler{slaves: []piconet.SlaveID{1}}
	p.SetScheduler(sched)
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := p.EnqueuePacket(2, 27); err != nil {
		t.Fatalf("EnqueuePacket: %v", err)
	}
	s.Schedule(10*time.Millisecond, p.Stop)
	s.Schedule(10*time.Millisecond, p.Stop) // same-instant double Stop
	s.Schedule(15*time.Millisecond, p.Stop) // and a later one
	if err := s.Run(30 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	p.Stop() // post-run double Stop
	if !p.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	// Post-Stop hygiene: none of these may panic or schedule a wake.
	p.Kick()
	if err := p.EnqueuePacket(1, 27); err != nil {
		t.Fatalf("EnqueuePacket after Stop: %v", err)
	}
	if err := p.EnqueuePacketAt(1, 27, s.Now()+50*time.Millisecond); err != nil {
		t.Fatalf("EnqueuePacketAt after Stop: %v", err)
	}
	if err := p.SuspendFlow(2); err != nil {
		t.Fatalf("SuspendFlow after Stop: %v", err)
	}
	d, _ := p.FlowDelivered(1)
	before := d.Packets()
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("Run after Stop: %v", err)
	}
	if d.Packets() != before {
		t.Fatalf("deliveries advanced after Stop: %d -> %d", before, d.Packets())
	}
	if p.Err() != nil {
		t.Fatalf("engine error after double Stop: %v", p.Err())
	}
}

// TestSuspendResumeFlow: a suspended flow flushes its queue, rejects
// enqueues and is skipped by BE polls; resuming restores service and the
// meters span the gap.
func TestSuspendResumeFlow(t *testing.T) {
	s := sim.New()
	p := buildBE(t, s)
	sched := &rrScheduler{slaves: []piconet.SlaveID{1}}
	p.SetScheduler(sched)
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := p.EnqueuePacket(2, 27); err != nil {
			t.Fatalf("EnqueuePacket: %v", err)
		}
	}
	// Pre-counted future arrival: suspension must uncount it.
	if err := p.EnqueuePacketAt(2, 27, 50*time.Millisecond); err != nil {
		t.Fatalf("EnqueuePacketAt: %v", err)
	}
	if err := p.SuspendFlow(2); err != nil {
		t.Fatalf("SuspendFlow: %v", err)
	}
	if !p.FlowSuspended(2) {
		t.Fatal("FlowSuspended(2) = false after suspend")
	}
	if !p.FlowActive(2) {
		t.Fatal("suspension must not read as retirement")
	}
	if err := p.SuspendFlow(2); !errors.Is(err, piconet.ErrFlowSuspended) {
		t.Fatalf("double suspend: err = %v", err)
	}
	off, _ := p.FlowOffered(2)
	if off.Packets() != 3 {
		t.Fatalf("offered %d packets after suspend, want 3 (future arrival uncounted)", off.Packets())
	}
	if err := p.EnqueuePacket(2, 27); !errors.Is(err, piconet.ErrFlowSuspended) {
		t.Fatalf("enqueue on suspended flow: err = %v", err)
	}
	if err := s.Run(20 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	d, _ := p.FlowDelivered(2)
	if d.Packets() != 0 {
		t.Fatalf("suspended flow delivered %d packets", d.Packets())
	}
	if err := p.ResumeFlow(2); err != nil {
		t.Fatalf("ResumeFlow: %v", err)
	}
	if err := p.EnqueuePacket(2, 27); err != nil {
		t.Fatalf("EnqueuePacket after resume: %v", err)
	}
	if err := s.Run(50 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d.Packets() != 1 {
		t.Fatalf("delivered %d packets after resume, want 1", d.Packets())
	}
}

// TestSupervisionTimeout drives a link into a fault window and checks the
// supervision timeout declares it dead after exactly N consecutive failed
// exchanges, exactly once per episode, and re-arms after recovery.
func TestSupervisionTimeout(t *testing.T) {
	s := sim.New()
	// Two separate fault windows: the timeout must fire once per episode.
	outage := func(_ piconet.SlaveID, now sim.Time) bool {
		in := func(a, b sim.Time) bool { return now >= a && now < b }
		return in(10*time.Millisecond, 30*time.Millisecond) ||
			in(70*time.Millisecond, 90*time.Millisecond)
	}
	type death struct{ since, at sim.Time }
	var deaths []death
	p := buildBE(t, s,
		piconet.WithLinkFault(outage),
		piconet.WithSupervision(3, func(_ piconet.SlaveID, since, at sim.Time) {
			deaths = append(deaths, death{since, at})
		}))
	sched := &rrScheduler{slaves: []piconet.SlaveID{1}}
	p.SetScheduler(sched)
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := s.Run(60 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(deaths) != 1 {
		t.Fatalf("supervision fired %d times during one outage, want 1", len(deaths))
	}
	dd := deaths[0]
	if dd.since < 10*time.Millisecond || dd.since >= 30*time.Millisecond {
		t.Fatalf("failing-since %v outside the outage window", dd.since)
	}
	// 3 consecutive failed 2-slot exchanges: detection within ~4 ms of
	// the first failure.
	if lat := dd.at - dd.since; lat <= 0 || lat > 5*time.Millisecond {
		t.Fatalf("detection latency %v implausible for 3 consecutive polls", lat)
	}
	// Second outage after recovery: the re-armed timeout fires again.
	if err := s.Run(120 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(deaths) != 2 {
		t.Fatalf("supervision fired %d times across two outages, want 2", len(deaths))
	}
	if d2 := deaths[1]; d2.since < 70*time.Millisecond || d2.since >= 90*time.Millisecond {
		t.Fatalf("second failing-since %v outside the second window", d2.since)
	}
}

// TestPruneFutureArrivals: pre-counted up-link packets stamped after the
// cutoff drop from the queue and the meter; packets at or before it stay.
func TestPruneFutureArrivals(t *testing.T) {
	s := sim.New()
	p := buildBE(t, s)
	for i := 0; i <= 4; i++ {
		if err := p.EnqueuePacketAt(2, 27, time.Duration(i)*10*time.Millisecond); err != nil {
			t.Fatalf("EnqueuePacketAt: %v", err)
		}
	}
	p.PruneFutureArrivals(20 * time.Millisecond)
	off, _ := p.FlowOffered(2)
	if off.Packets() != 3 {
		t.Fatalf("offered %d packets after prune, want 3 (arrivals 0/10/20ms)", off.Packets())
	}
	if got := p.OracleUpQueueLen(2); got != 3 {
		t.Fatalf("queue holds %d packets after prune, want 3", got)
	}
}
