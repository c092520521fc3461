package poller

import (
	"testing"
	"time"

	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// mockView is a scriptable master-knowledge view.
type mockView struct {
	slaves  []piconet.SlaveID
	backlog map[piconet.SlaveID]int
}

func newMockView(slaves ...piconet.SlaveID) *mockView {
	return &mockView{slaves: slaves, backlog: make(map[piconet.SlaveID]int)}
}

func (m *mockView) Slaves() []piconet.SlaveID             { return m.slaves }
func (m *mockView) HasDownBacklog(s piconet.SlaveID) bool { return m.backlog[s] > 0 }

func outcomeAt(s piconet.SlaveID, end sim.Time, up int, more bool) Outcome {
	slots := 2
	if up > 0 {
		slots = 4
	}
	return Outcome{Slave: s, End: end, UpBytes: up, Slots: slots, UpMoreData: more}
}

func TestRoundRobinCycles(t *testing.T) {
	v := newMockView(1, 2, 3)
	var rr RoundRobin
	want := []piconet.SlaveID{1, 2, 3, 1, 2, 3}
	for i, w := range want {
		got, ok := rr.Next(0, v)
		if !ok || got != w {
			t.Fatalf("poll %d = %d (%v), want %d", i, got, ok, w)
		}
		rr.Observe(outcomeAt(got, sim.Time(i)*time.Millisecond, 0, false))
	}
}

func TestRoundRobinNoSlaves(t *testing.T) {
	var rr RoundRobin
	if _, ok := rr.Next(0, newMockView()); ok {
		t.Fatal("expected no slave")
	}
}

func TestExhaustiveStaysWhileProductive(t *testing.T) {
	v := newMockView(1, 2)
	var e Exhaustive
	s, _ := e.Next(0, v)
	if s != 1 {
		t.Fatalf("first poll = %d, want 1", s)
	}
	// Slave 1 keeps delivering: poller must stay.
	for i := 0; i < 5; i++ {
		e.Observe(outcomeAt(1, sim.Time(i)*time.Millisecond, 100, true))
		s, _ = e.Next(0, v)
		if s != 1 {
			t.Fatalf("poll %d = %d, want to stay on 1", i, s)
		}
	}
	// Empty outcome: advance to slave 2.
	e.Observe(outcomeAt(1, 10*time.Millisecond, 0, false))
	s, _ = e.Next(0, v)
	if s != 2 {
		t.Fatalf("after drain = %d, want 2", s)
	}
}

func TestFEPDemotesAndProbes(t *testing.T) {
	v := newMockView(1, 2, 3)
	var f FEP
	// Drain: every poll comes back empty; all slaves end up inactive.
	for i := 0; i < 3; i++ {
		s, ok := f.Next(0, v)
		if !ok {
			t.Fatal("no slave")
		}
		f.Observe(outcomeAt(s, sim.Time(i)*time.Millisecond, 0, false))
	}
	if len(f.active) != 0 || len(f.inactive) != 3 {
		t.Fatalf("active=%v inactive=%v, want all inactive", f.active, f.inactive)
	}
	// With all inactive, Next probes them (and keeps probing).
	s, ok := f.Next(10*time.Millisecond, v)
	if !ok {
		t.Fatal("no probe target")
	}
	// A productive probe promotes the slave back.
	f.Observe(outcomeAt(s, 11*time.Millisecond, 144, false))
	if len(f.active) != 1 || f.active[0] != s {
		t.Fatalf("active=%v, want [%d]", f.active, s)
	}
	// The promoted slave is now polled (it is the only active).
	got, _ := f.Next(12*time.Millisecond, v)
	if got != s {
		t.Fatalf("next poll = %d, want promoted slave %d", got, s)
	}
}

func TestFEPPromotesOnDownBacklog(t *testing.T) {
	v := newMockView(1, 2)
	var f FEP
	// Demote both.
	for i := 0; i < 2; i++ {
		s, _ := f.Next(0, v)
		f.Observe(outcomeAt(s, sim.Time(i)*time.Millisecond, 0, false))
	}
	// Master-side backlog for slave 2: immediately promoted and polled.
	v.backlog[2] = 3
	s, _ := f.Next(5*time.Millisecond, v)
	if s != 2 {
		t.Fatalf("poll = %d, want 2 (downlink backlog)", s)
	}
}

func TestFEPRoundRobinAmongActive(t *testing.T) {
	v := newMockView(1, 2, 3)
	var f FEP
	seen := map[piconet.SlaveID]int{}
	for i := 0; i < 30; i++ {
		s, _ := f.Next(0, v)
		seen[s]++
		// All slaves stay productive.
		f.Observe(outcomeAt(s, sim.Time(i)*time.Millisecond, 100, true))
	}
	for s, n := range seen {
		if n != 10 {
			t.Fatalf("slave %d polled %d times, want 10 (fair RR): %v", s, n, seen)
		}
	}
}

func TestEDCBacksOffIdleSlaves(t *testing.T) {
	v := newMockView(1, 2)
	e := NewEDC(2*piconet.DecisionInterval, 50*time.Millisecond)
	now := sim.Time(0)
	// Both slaves idle: repeated fruitless polls push their probe
	// intervals up.
	polls := 0
	for i := 0; i < 10; i++ {
		s, ok := e.Next(now, v)
		if !ok {
			break
		}
		polls++
		now += 2 * 625 * time.Microsecond
		e.Observe(outcomeAt(s, now, 0, false))
	}
	iv1 := e.interval[1]
	if iv1 <= 2*piconet.DecisionInterval {
		t.Fatalf("interval for idle slave = %v, want backed off", iv1)
	}
	// Data resets the backoff.
	e.Observe(outcomeAt(1, now, 144, false))
	if e.interval[1] != 2*piconet.DecisionInterval {
		t.Fatalf("interval after data = %v, want reset to min", e.interval[1])
	}
	if !e.busy[1] {
		t.Fatal("slave with data should rejoin the active cycle")
	}
}

func TestEDCServesActiveFirst(t *testing.T) {
	v := newMockView(1, 2)
	e := NewEDC(0, 0)
	// Make slave 1 idle, slave 2 busy.
	s, _ := e.Next(0, v)
	e.Observe(outcomeAt(s, 1250*time.Microsecond, 0, false))
	s, _ = e.Next(2*time.Millisecond, v)
	e.Observe(outcomeAt(s, 3*time.Millisecond, 144, true))
	// Now the busy slave must be chosen.
	got, _ := e.Next(4*time.Millisecond, v)
	busyOne := s
	if got != busyOne {
		t.Fatalf("next = %d, want busy slave %d", got, busyOne)
	}
}

func TestDemandFavorsBusySlave(t *testing.T) {
	v := newMockView(1, 2)
	d := NewDemand(0.25)
	// Feed outcomes: slave 1 always moves 176 bytes, slave 2 nothing.
	now := sim.Time(0)
	polls := map[piconet.SlaveID]int{}
	for i := 0; i < 200; i++ {
		s, ok := d.Next(now, v)
		if !ok {
			t.Fatal("no slave")
		}
		polls[s]++
		now += 2500 * time.Microsecond
		up := 0
		if s == 1 {
			up = 176
		}
		d.Observe(outcomeAt(s, now, up, false))
	}
	if polls[1] <= 3*polls[2] {
		t.Fatalf("busy slave polled %d, idle %d; want strong bias", polls[1], polls[2])
	}
	if polls[2] == 0 {
		t.Fatal("idle slave fully starved; demand floor should keep probes alive")
	}
}

func TestHOLPriorityOrder(t *testing.T) {
	v := newMockView(1, 2, 3)
	h := NewHOL(map[piconet.SlaveID]int{1: 3, 2: 1, 3: 2})
	// All believed active initially: highest priority (2) chosen.
	s, _ := h.Next(0, v)
	if s != 2 {
		t.Fatalf("first poll = %d, want priority slave 2", s)
	}
	// Slave 2 goes idle; next is slave 3, then 1.
	h.Observe(outcomeAt(2, time.Millisecond, 0, false))
	s, _ = h.Next(2*time.Millisecond, v)
	if s != 3 {
		t.Fatalf("poll = %d, want 3", s)
	}
	h.Observe(outcomeAt(3, 3*time.Millisecond, 0, false))
	s, _ = h.Next(4*time.Millisecond, v)
	if s != 1 {
		t.Fatalf("poll = %d, want 1", s)
	}
	// All idle: probing keeps rotating.
	h.Observe(outcomeAt(1, 5*time.Millisecond, 0, false))
	probed := map[piconet.SlaveID]bool{}
	for i := 0; i < 3; i++ {
		s, _ = h.Next(sim.Time(6+i)*time.Millisecond, v)
		probed[s] = true
		h.Observe(outcomeAt(s, sim.Time(6+i)*time.Millisecond+500*time.Microsecond, 0, false))
	}
	if len(probed) != 3 {
		t.Fatalf("probe rotation covered %d slaves, want 3", len(probed))
	}
	// Down backlog reactivates by priority.
	v.backlog[1] = 1
	v.backlog[2] = 1
	s, _ = h.Next(20*time.Millisecond, v)
	if s != 2 {
		t.Fatalf("poll = %d, want higher-priority slave 2", s)
	}
}

func TestPFPPredictionRises(t *testing.T) {
	v := newMockView(1)
	p := NewPFP(nil)
	// Before any poll: optimistic.
	if got := p.Predict(0, v, 1); got != 1 {
		t.Fatalf("unpolled Predict = %v, want 1", got)
	}
	// An empty poll pins the queue-known-empty time.
	p.Observe(outcomeAt(1, 10*time.Millisecond, 0, false))
	right := p.Predict(11*time.Millisecond, v, 1)
	later := p.Predict(100*time.Millisecond, v, 1)
	if right >= later {
		t.Fatalf("prediction should rise with time: %v then %v", right, later)
	}
	if got := p.Predict(10*time.Millisecond, v, 1); got != 0 {
		t.Fatalf("prediction at the instant of an empty poll = %v, want 0", got)
	}
	// Down backlog forces prediction to 1.
	v.backlog[1] = 1
	if got := p.Predict(10*time.Millisecond, v, 1); got != 1 {
		t.Fatalf("Predict with down backlog = %v, want 1", got)
	}
	v.backlog[1] = 0
	// More-data flag forces prediction to 1.
	p.Observe(outcomeAt(1, 20*time.Millisecond, 176, true))
	if got := p.Predict(20*time.Millisecond, v, 1); got != 1 {
		t.Fatalf("Predict with more-data = %v, want 1", got)
	}
}

func TestPFPFairnessPrefersDeficit(t *testing.T) {
	v := newMockView(1, 2)
	p := NewPFP(nil)
	// Both have down backlog (predicted active), but slave 1 has been
	// served much more.
	v.backlog[1] = 1
	v.backlog[2] = 1
	p.Observe(Outcome{Slave: 1, End: time.Millisecond, UpBytes: 176, Slots: 6})
	p.Observe(Outcome{Slave: 1, End: 2 * time.Millisecond, UpBytes: 176, Slots: 6})
	p.Observe(Outcome{Slave: 2, End: 3 * time.Millisecond, UpBytes: 176, Slots: 2})
	s, ok := p.Next(4*time.Millisecond, v)
	if !ok || s != 2 {
		t.Fatalf("Next = %d (%v), want under-served slave 2", s, ok)
	}
	f1 := p.FairShareFraction(1)
	f2 := p.FairShareFraction(2)
	if f1 <= f2 {
		t.Fatalf("fractions: slave1 %v <= slave2 %v, want slave1 over-served", f1, f2)
	}
}

func TestPFPWeights(t *testing.T) {
	p := NewPFP(map[piconet.SlaveID]float64{1: 3, 2: 1})
	p.Observe(Outcome{Slave: 1, End: time.Millisecond, UpBytes: 176, Slots: 6})
	p.Observe(Outcome{Slave: 2, End: 2 * time.Millisecond, UpBytes: 176, Slots: 6})
	// Equal service but slave 1 deserves 3x: its fraction must be lower.
	if f1, f2 := p.FairShareFraction(1), p.FairShareFraction(2); f1 >= f2 {
		t.Fatalf("weighted fractions: %v >= %v, want slave1 lower", f1, f2)
	}
}

func TestPFPProbesStalest(t *testing.T) {
	v := newMockView(1, 2)
	p := NewPFP(nil)
	// Empty polls for both; slave 1 longer ago.
	p.Observe(outcomeAt(1, 1*time.Millisecond, 0, false))
	p.Observe(outcomeAt(2, 50*time.Millisecond, 0, false))
	// Immediately after, neither is predicted active; probe stalest (1).
	s, ok := p.Next(51*time.Millisecond, v)
	if !ok || s != 1 {
		t.Fatalf("Next = %d (%v), want stalest slave 1", s, ok)
	}
}

func TestPollerNamesDistinct(t *testing.T) {
	ps := []Poller{
		&RoundRobin{}, &Exhaustive{}, &FEP{}, NewEDC(0, 0),
		NewDemand(0), NewHOL(nil), NewPFP(nil),
	}
	seen := map[string]bool{}
	for _, p := range ps {
		n := p.Name()
		if n == "" || seen[n] {
			t.Fatalf("duplicate or empty poller name %q", n)
		}
		seen[n] = true
	}
}

func TestAllPollersHandleNoSlaves(t *testing.T) {
	v := newMockView()
	ps := []Poller{
		&RoundRobin{}, &Exhaustive{}, &FEP{}, NewEDC(0, 0),
		NewDemand(0.5), NewHOL(nil), NewPFP(nil),
	}
	for _, p := range ps {
		if _, ok := p.Next(0, v); ok {
			t.Fatalf("%s returned a slave from an empty view", p.Name())
		}
	}
}
