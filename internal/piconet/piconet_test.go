package piconet_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
	"bluegs/internal/radio"
	"bluegs/internal/sim"
)

// rrScheduler polls every slave's BE channel in round-robin with no idling.
type rrScheduler struct {
	slaves   []piconet.SlaveID
	idx      int
	outcomes []piconet.Outcome
}

func (s *rrScheduler) Decide(_ sim.Time, _ int) piconet.Action {
	sl := s.slaves[s.idx%len(s.slaves)]
	s.idx++
	return piconet.PollBE(sl)
}

func (s *rrScheduler) OnOutcome(o *piconet.Outcome)           { s.outcomes = append(s.outcomes, *o) }
func (s *rrScheduler) OnDownArrival(piconet.FlowID, sim.Time) {}

// gsScheduler polls one GS flow pair at every opportunity.
type gsScheduler struct {
	slave    piconet.SlaveID
	down, up piconet.FlowID
	outcomes []piconet.Outcome
}

func (s *gsScheduler) Decide(_ sim.Time, _ int) piconet.Action {
	return piconet.PollGS(s.slave, s.down, s.up)
}

func (s *gsScheduler) OnOutcome(o *piconet.Outcome)           { s.outcomes = append(s.outcomes, *o) }
func (s *gsScheduler) OnDownArrival(piconet.FlowID, sim.Time) {}

// buildBE returns a piconet with one slave and BE flows both ways.
func buildBE(t *testing.T, s *sim.Simulator, opts ...piconet.Option) *piconet.Piconet {
	t.Helper()
	p := piconet.New(s, opts...)
	if err := p.AddSlave(1); err != nil {
		t.Fatalf("AddSlave: %v", err)
	}
	for _, cfg := range []piconet.FlowConfig{
		{ID: 1, Slave: 1, Dir: piconet.Down, Class: piconet.BestEffort, Allowed: baseband.PaperTypes},
		{ID: 2, Slave: 1, Dir: piconet.Up, Class: piconet.BestEffort, Allowed: baseband.PaperTypes},
	} {
		if err := p.AddFlow(cfg); err != nil {
			t.Fatalf("AddFlow(%d): %v", cfg.ID, err)
		}
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	s := sim.New()
	p := piconet.New(s)
	if err := p.AddSlave(0); err == nil {
		t.Fatal("slave id 0 should be rejected")
	}
	if err := p.AddSlave(8); err == nil {
		t.Fatal("slave id 8 should be rejected")
	}
	for i := 1; i <= 7; i++ {
		if err := p.AddSlave(piconet.SlaveID(i)); err != nil {
			t.Fatalf("AddSlave(%d): %v", i, err)
		}
	}
	if err := p.AddSlave(3); !errors.Is(err, piconet.ErrDuplicateSlave) {
		t.Fatalf("duplicate slave: err = %v", err)
	}
	cfg := piconet.FlowConfig{ID: 1, Slave: 1, Dir: piconet.Down, Class: piconet.BestEffort, Allowed: baseband.PaperTypes}
	if err := p.AddFlow(cfg); err != nil {
		t.Fatalf("AddFlow: %v", err)
	}
	if err := p.AddFlow(cfg); !errors.Is(err, piconet.ErrDuplicateFlow) {
		t.Fatalf("duplicate flow: err = %v", err)
	}
	bad := cfg
	bad.ID = 2
	bad.Slave = 9
	if err := p.AddFlow(bad); !errors.Is(err, piconet.ErrUnknownSlave) {
		t.Fatalf("unknown slave: err = %v", err)
	}
	bad = cfg
	bad.ID = 0
	if err := p.AddFlow(bad); !errors.Is(err, piconet.ErrInvalidFlow) {
		t.Fatalf("zero id: err = %v", err)
	}
	bad = cfg
	bad.ID = 3
	bad.Allowed = baseband.NewTypeSet(baseband.TypeHV3)
	if err := p.AddFlow(bad); !errors.Is(err, piconet.ErrInvalidFlow) {
		t.Fatalf("no ACL types: err = %v", err)
	}
	if err := p.Start(); !errors.Is(err, piconet.ErrNoScheduler) {
		t.Fatalf("start without scheduler: err = %v", err)
	}
	p.SetScheduler(&rrScheduler{slaves: []piconet.SlaveID{1}})
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := p.Start(); !errors.Is(err, piconet.ErrAlreadyStarted) {
		t.Fatalf("double start: err = %v", err)
	}
	if err := p.AddSlave(1); !errors.Is(err, piconet.ErrDuplicateSlave) {
		t.Fatalf("duplicate slave after start: err = %v", err)
	}
	// Topology stays mutable mid-run (timeline scenarios).
	late := cfg
	late.ID = 4
	late.Dir = piconet.Up
	if err := p.AddFlow(late); err != nil {
		t.Fatalf("mid-run AddFlow: %v", err)
	}
}

func TestDownDeliveryAndDelay(t *testing.T) {
	s := sim.New()
	p := buildBE(t, s)
	sched := &rrScheduler{slaves: []piconet.SlaveID{1}}
	p.SetScheduler(sched)
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// One 176-byte packet at t=0: served by the first poll (one DH3).
	if err := p.EnqueuePacket(1, 176); err != nil {
		t.Fatalf("EnqueuePacket: %v", err)
	}
	if err := s.Run(50 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := p.Err(); err != nil {
		t.Fatalf("engine error: %v", err)
	}
	del, _ := p.FlowDelivered(1)
	if del.Packets() != 1 || del.Bytes() != 176 {
		t.Fatalf("delivered %d packets %d bytes, want 1/176", del.Packets(), del.Bytes())
	}
	ds, _ := p.FlowDelayStats(1)
	// The first poll starts at t=0, the DH3 ends at 3 slots = 1.875ms.
	if got := ds.Max(); got != 1875*time.Microsecond {
		t.Fatalf("delay = %v, want 1.875ms (3 slots)", got)
	}
}

func TestUpDeliveryViaPoll(t *testing.T) {
	s := sim.New()
	p := buildBE(t, s)
	sched := &rrScheduler{slaves: []piconet.SlaveID{1}}
	p.SetScheduler(sched)
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := p.EnqueuePacket(2, 144); err != nil {
		t.Fatalf("EnqueuePacket: %v", err)
	}
	if err := s.Run(50 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	del, _ := p.FlowDelivered(2)
	if del.Packets() != 1 || del.Bytes() != 144 {
		t.Fatalf("delivered %d packets %d bytes, want 1/144", del.Packets(), del.Bytes())
	}
	ds, _ := p.FlowDelayStats(2)
	// POLL (1 slot) + DH3 (3 slots) = 4 slots = 2.5ms.
	if got := ds.Max(); got != 2500*time.Microsecond {
		t.Fatalf("delay = %v, want 2.5ms (POLL+DH3)", got)
	}
	// The outcome must describe the exchange.
	found := false
	for _, o := range sched.outcomes {
		if o.Up.Flow == 2 && o.Up.Bytes == 144 && o.Up.Type == baseband.TypeDH3 {
			found = true
			if o.Down.Type != baseband.TypePOLL {
				t.Fatalf("down leg = %v, want POLL", o.Down.Type)
			}
			if o.Up.CompletedPacketSize != 144 {
				t.Fatalf("CompletedPacketSize = %d, want 144", o.Up.CompletedPacketSize)
			}
			if o.End-o.Start != 4*baseband.SlotDuration {
				t.Fatalf("exchange duration = %v, want 4 slots", o.End-o.Start)
			}
		}
	}
	if !found {
		t.Fatal("no outcome carried the uplink packet")
	}
}

func TestWastedPollIsTwoSlots(t *testing.T) {
	s := sim.New()
	p := buildBE(t, s)
	sched := &rrScheduler{slaves: []piconet.SlaveID{1}}
	p.SetScheduler(sched)
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := s.Run(10 * 1250 * time.Microsecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Every exchange is POLL+NULL: 2 slots, back to back.
	if len(sched.outcomes) != 10 {
		t.Fatalf("%d outcomes, want 10", len(sched.outcomes))
	}
	for i, o := range sched.outcomes {
		if o.Down.Type != baseband.TypePOLL || o.Up.Type != baseband.TypeNULL {
			t.Fatalf("outcome %d: %v/%v, want POLL/NULL", i, o.Down.Type, o.Up.Type)
		}
		if o.End-o.Start != 2*baseband.SlotDuration {
			t.Fatalf("outcome %d duration %v, want 2 slots", i, o.End-o.Start)
		}
		if want := sim.Time(i) * 2 * baseband.SlotDuration; o.Start != want {
			t.Fatalf("outcome %d starts at %v, want %v", i, o.Start, want)
		}
	}
	acct := p.SlotAccount(s.Now())
	if acct.BEOverhead != 20 || acct.BEData != 0 {
		t.Fatalf("account = %v, want 20 BE overhead slots", acct)
	}
}

func TestExchangesNeverOverlapAndAligned(t *testing.T) {
	s := sim.New(sim.WithSeed(3))
	p := buildBE(t, s)
	sched := &rrScheduler{slaves: []piconet.SlaveID{1}}
	p.SetScheduler(sched)
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Random packet arrivals both directions.
	rng := rand.New(rand.NewSource(99))
	var at time.Duration
	for i := 0; i < 200; i++ {
		at += time.Duration(rng.Intn(4000)) * time.Microsecond
		flow := piconet.FlowID(1 + rng.Intn(2))
		size := 1 + rng.Intn(300)
		at := at
		s.Schedule(at, func() {
			if err := p.EnqueuePacket(flow, size); err != nil {
				t.Errorf("EnqueuePacket: %v", err)
			}
		})
	}
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var prevEnd sim.Time
	for i, o := range sched.outcomes {
		if o.Start < prevEnd {
			t.Fatalf("exchange %d starts at %v before previous end %v", i, o.Start, prevEnd)
		}
		if o.Start%(2*baseband.SlotDuration) != 0 {
			t.Fatalf("exchange %d starts at %v, not on an even slot boundary", i, o.Start)
		}
		if (o.End-o.Start)%(2*baseband.SlotDuration) != 0 {
			t.Fatalf("exchange %d spans %v, not a whole slot-pair count", i, o.End-o.Start)
		}
		prevEnd = o.End
	}
}

func TestAvailabilityCutoffAtPollStart(t *testing.T) {
	// A packet arriving one microsecond after the poll starts must wait
	// for the next poll (paper §3.1).
	s := sim.New()
	p := buildBE(t, s)
	sched := &rrScheduler{slaves: []piconet.SlaveID{1}}
	p.SetScheduler(sched)
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	s.Schedule(time.Microsecond, func() {
		if err := p.EnqueuePacket(1, 27); err != nil {
			t.Errorf("EnqueuePacket: %v", err)
		}
	})
	if err := s.Run(20 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// First outcome (poll at t=0) must be empty; the packet rides a
	// later poll.
	if len(sched.outcomes) == 0 {
		t.Fatal("no outcomes")
	}
	first := sched.outcomes[0]
	if first.Down.Bytes != 0 {
		t.Fatalf("first poll carried %d bytes; cutoff violated", first.Down.Bytes)
	}
	del, _ := p.FlowDelivered(1)
	if del.Packets() != 1 {
		t.Fatalf("delivered %d packets, want 1", del.Packets())
	}
}

func TestGSPollValidation(t *testing.T) {
	s := sim.New()
	p := piconet.New(s)
	if err := p.AddSlave(1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddSlave(2); err != nil {
		t.Fatal(err)
	}
	flows := []piconet.FlowConfig{
		{ID: 1, Slave: 1, Dir: piconet.Down, Class: piconet.Guaranteed, Allowed: baseband.PaperTypes},
		{ID: 2, Slave: 1, Dir: piconet.Up, Class: piconet.Guaranteed, Allowed: baseband.PaperTypes},
		{ID: 3, Slave: 2, Dir: piconet.Down, Class: piconet.BestEffort, Allowed: baseband.PaperTypes},
	}
	for _, cfg := range flows {
		if err := p.AddFlow(cfg); err != nil {
			t.Fatalf("AddFlow(%d): %v", cfg.ID, err)
		}
	}
	tests := []struct {
		name   string
		action piconet.Action
		want   error
	}{
		{"flow of another slave", piconet.PollGS(1, 3, 0), piconet.ErrSlaveNotOfFlow},
		{"BE class rejected", func() piconet.Action {
			a := piconet.PollGS(2, 0, 0)
			a.DownFlow = 3
			return a
		}(), piconet.ErrClassMismatch},
		{"wrong direction", piconet.PollGS(1, 2, 0), piconet.ErrQueueMismatch},
		{"unknown flow", piconet.PollGS(1, 99, 0), piconet.ErrUnknownFlow},
		{"no flows", piconet.PollGS(1, 0, 0), piconet.ErrActionInvalid},
		{"unknown slave", piconet.PollGS(5, 1, 0), piconet.ErrUnknownSlave},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := sim.New()
			p2 := piconet.New(s)
			_ = p2.AddSlave(1)
			_ = p2.AddSlave(2)
			for _, cfg := range flows {
				if err := p2.AddFlow(cfg); err != nil {
					t.Fatal(err)
				}
			}
			fixed := &fixedActionScheduler{action: tt.action}
			p2.SetScheduler(fixed)
			if err := p2.Start(); err != nil {
				t.Fatal(err)
			}
			_ = s.Run(time.Second)
			if err := p2.Err(); !errors.Is(err, tt.want) {
				t.Fatalf("engine err = %v, want %v", err, tt.want)
			}
		})
	}
}

type fixedActionScheduler struct {
	action piconet.Action
}

func (f *fixedActionScheduler) Decide(sim.Time, int) piconet.Action    { return f.action }
func (f *fixedActionScheduler) OnOutcome(*piconet.Outcome)             {}
func (f *fixedActionScheduler) OnDownArrival(piconet.FlowID, sim.Time) {}

func TestGSPiggybackExchange(t *testing.T) {
	// A GS poll with both a down and an up flow moves data both ways in
	// one exchange (the paper's piggybacking).
	s := sim.New()
	p := piconet.New(s)
	if err := p.AddSlave(1); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []piconet.FlowConfig{
		{ID: 1, Slave: 1, Dir: piconet.Down, Class: piconet.Guaranteed, Allowed: baseband.PaperTypes},
		{ID: 2, Slave: 1, Dir: piconet.Up, Class: piconet.Guaranteed, Allowed: baseband.PaperTypes},
	} {
		if err := p.AddFlow(cfg); err != nil {
			t.Fatal(err)
		}
	}
	sched := &gsScheduler{slave: 1, down: 1, up: 2}
	p.SetScheduler(sched)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.EnqueuePacket(1, 176); err != nil {
		t.Fatal(err)
	}
	if err := p.EnqueuePacket(2, 150); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := p.Err(); err != nil {
		t.Fatalf("engine error: %v", err)
	}
	first := sched.outcomes[0]
	if first.Down.Bytes != 176 || first.Up.Bytes != 150 {
		t.Fatalf("piggyback exchange carried %d/%d bytes, want 176/150", first.Down.Bytes, first.Up.Bytes)
	}
	// DH3 both ways: 6 slots.
	if first.End-first.Start != 6*baseband.SlotDuration {
		t.Fatalf("exchange duration %v, want 6 slots", first.End-first.Start)
	}
	acct := p.SlotAccount(s.Now())
	if acct.GSData != 6 {
		t.Fatalf("GSData = %d slots, want 6", acct.GSData)
	}
}

func TestMultiSegmentPacketNeedsMultiplePolls(t *testing.T) {
	// A 200-byte packet under DH1+DH3 is DH3(183)+DH1(17): two polls.
	s := sim.New()
	p := buildBE(t, s)
	sched := &rrScheduler{slaves: []piconet.SlaveID{1}}
	p.SetScheduler(sched)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.EnqueuePacket(2, 200); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	del, _ := p.FlowDelivered(2)
	if del.Packets() != 1 || del.Bytes() != 200 {
		t.Fatalf("delivered %d/%d, want 1 packet 200 bytes", del.Packets(), del.Bytes())
	}
	var dataLegs int
	var sawMoreData bool
	for _, o := range sched.outcomes {
		if o.Up.Bytes > 0 {
			dataLegs++
			if o.UpMoreData {
				sawMoreData = true
			}
		}
	}
	if dataLegs != 2 {
		t.Fatalf("packet served in %d polls, want 2", dataLegs)
	}
	if !sawMoreData {
		t.Fatal("more-data flag never set on the first segment")
	}
}

func TestEnqueueErrors(t *testing.T) {
	s := sim.New()
	p := buildBE(t, s)
	if err := p.EnqueuePacket(99, 100); !errors.Is(err, piconet.ErrUnknownFlow) {
		t.Fatalf("unknown flow: err = %v", err)
	}
	if err := p.EnqueuePacket(1, 0); !errors.Is(err, piconet.ErrPacketTooSmall) {
		t.Fatalf("zero size: err = %v", err)
	}
}

func TestIdleSchedulerAccounting(t *testing.T) {
	s := sim.New()
	p := buildBE(t, s)
	p.SetScheduler(&fixedActionScheduler{action: piconet.Idle(0)})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	acct := p.SlotAccount(s.Now())
	if acct.Idle != 1600 || acct.Total != 1600 {
		t.Fatalf("account = %v, want 1600 idle of 1600", acct)
	}
	if got := acct.GSShare(); got != 0 {
		t.Fatalf("GSShare = %v, want 0", got)
	}
}

func TestARQRecoversLosses(t *testing.T) {
	s := sim.New(sim.WithSeed(7))
	p := buildBE(t, s, piconet.WithRadio(radio.BER{BitErrorRate: 3e-4}), piconet.WithARQ(true))
	sched := &rrScheduler{slaves: []piconet.SlaveID{1}}
	p.SetScheduler(sched)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		s.Schedule(at, func() {
			if err := p.EnqueuePacket(1, 176); err != nil {
				t.Errorf("EnqueuePacket: %v", err)
			}
		})
	}
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	del, _ := p.FlowDelivered(1)
	if del.Packets() != n {
		t.Fatalf("delivered %d packets with ARQ, want all %d", del.Packets(), n)
	}
	lost, _ := p.FlowLost(1)
	if lost.Packets() != 0 {
		t.Fatalf("lost %d packets despite ARQ", lost.Packets())
	}
	acct := p.SlotAccount(s.Now())
	if acct.Retransmit == 0 {
		t.Fatal("expected retransmission slots at this BER")
	}
}

func TestNoARQDropsCorruptPackets(t *testing.T) {
	s := sim.New(sim.WithSeed(11))
	p := buildBE(t, s, piconet.WithRadio(radio.BER{BitErrorRate: 2e-3}))
	sched := &rrScheduler{slaves: []piconet.SlaveID{1}}
	p.SetScheduler(sched)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 5 * time.Millisecond
		s.Schedule(at, func() {
			if err := p.EnqueuePacket(1, 176); err != nil {
				t.Errorf("EnqueuePacket: %v", err)
			}
		})
	}
	if err := s.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	del, _ := p.FlowDelivered(1)
	lost, _ := p.FlowLost(1)
	if lost.Packets() == 0 {
		t.Fatal("expected losses at BER 2e-3 without ARQ")
	}
	if del.Packets()+lost.Packets() != n {
		t.Fatalf("delivered %d + lost %d != offered %d", del.Packets(), lost.Packets(), n)
	}
}

// TestPropertyConservation: under random traffic, every offered packet is
// either delivered or still queued when the run ends (ideal radio).
func TestPropertyConservation(t *testing.T) {
	f := func(seed int64) bool {
		s := sim.New(sim.WithSeed(seed))
		p := piconet.New(s)
		if err := p.AddSlave(1); err != nil {
			return false
		}
		if err := p.AddSlave(2); err != nil {
			return false
		}
		flows := []piconet.FlowConfig{
			{ID: 1, Slave: 1, Dir: piconet.Down, Class: piconet.BestEffort, Allowed: baseband.PaperTypes},
			{ID: 2, Slave: 1, Dir: piconet.Up, Class: piconet.BestEffort, Allowed: baseband.PaperTypes},
			{ID: 3, Slave: 2, Dir: piconet.Down, Class: piconet.BestEffort, Allowed: baseband.PaperTypes},
			{ID: 4, Slave: 2, Dir: piconet.Up, Class: piconet.BestEffort, Allowed: baseband.PaperTypes},
		}
		for _, cfg := range flows {
			if err := p.AddFlow(cfg); err != nil {
				return false
			}
		}
		sched := &rrScheduler{slaves: []piconet.SlaveID{1, 2}}
		p.SetScheduler(sched)
		if err := p.Start(); err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 1))
		offered := map[piconet.FlowID]int{}
		var at time.Duration
		for i := 0; i < 100; i++ {
			at += time.Duration(rng.Intn(3000)) * time.Microsecond
			flow := piconet.FlowID(1 + rng.Intn(4))
			size := 1 + rng.Intn(400)
			offered[flow]++
			s.Schedule(at, func() {
				_ = p.EnqueuePacket(flow, size)
			})
		}
		if err := s.Run(5 * time.Second); err != nil {
			return false
		}
		if p.Err() != nil {
			return false
		}
		for _, cfg := range flows {
			del, _ := p.FlowDelivered(cfg.ID)
			queued := p.DownQueueLen(cfg.ID) + p.OracleUpQueueLen(cfg.ID)
			if int(del.Packets())+queued != offered[cfg.ID] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(61))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSlaveThroughput(t *testing.T) {
	s := sim.New()
	p := buildBE(t, s)
	sched := &rrScheduler{slaves: []piconet.SlaveID{1}}
	p.SetScheduler(sched)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// 100 packets of 176 bytes over 1s in each direction: 140.8 kbps +
	// 140.8 kbps = 281.6 kbps for the slave.
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		s.Schedule(at, func() {
			_ = p.EnqueuePacket(1, 176)
			_ = p.EnqueuePacket(2, 176)
		})
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	got := p.SlaveThroughputKbps(1, time.Second)
	if got < 280 || got > 283 {
		t.Fatalf("slave throughput = %v kbps, want ~281.6", got)
	}
}

// TestHasBEDownBacklog: the one-scan best-effort backlog test equals the
// sum of DownQueueLen over the slave's in-service best-effort down flows
// being positive, as time passes the stamps of batched future arrivals, and
// ignores retired, suspended and Guaranteed Service flows.
func TestHasBEDownBacklog(t *testing.T) {
	s := sim.New()
	p := piconet.New(s)
	for _, id := range []piconet.SlaveID{1, 2, 3, 4} {
		if err := p.AddSlave(id); err != nil {
			t.Fatal(err)
		}
	}
	flow := func(id piconet.FlowID, slave piconet.SlaveID, dir piconet.Direction, class piconet.Class) {
		t.Helper()
		cfg := piconet.FlowConfig{ID: id, Slave: slave, Dir: dir, Class: class, Allowed: baseband.PaperTypes}
		if err := p.AddFlow(cfg); err != nil {
			t.Fatal(err)
		}
	}
	enqueue := func(id piconet.FlowID, at sim.Time) {
		t.Helper()
		if err := p.EnqueuePacketAt(id, 100, at); err != nil {
			t.Fatal(err)
		}
	}
	ms := time.Millisecond
	// Slave 1: an available head with a batched future tail, beside a
	// backlogged GS down flow.
	flow(11, 1, piconet.Down, piconet.BestEffort)
	flow(12, 1, piconet.Down, piconet.Guaranteed)
	enqueue(11, 0)
	enqueue(11, 2*ms)
	enqueue(11, 4*ms)
	enqueue(12, 0)
	// Slave 2: a future head at 3 ms; a retired and a suspended flow
	// that held packets, a GS down flow and a BE up flow with packets.
	flow(21, 2, piconet.Down, piconet.BestEffort)
	flow(22, 2, piconet.Down, piconet.BestEffort)
	flow(23, 2, piconet.Down, piconet.BestEffort)
	flow(24, 2, piconet.Down, piconet.Guaranteed)
	flow(25, 2, piconet.Up, piconet.BestEffort)
	enqueue(21, 3*ms)
	enqueue(22, 0)
	enqueue(22, ms)
	enqueue(23, 0)
	enqueue(24, 0)
	enqueue(25, 0)
	if err := p.RetireFlow(22); err != nil {
		t.Fatal(err)
	}
	if err := p.SuspendFlow(23); err != nil {
		t.Fatal(err)
	}
	// Slave 3: GS down backlog only. Slave 4 has no flows; slave 5 is
	// not registered.
	flow(31, 3, piconet.Down, piconet.Guaranteed)
	flow(32, 3, piconet.Down, piconet.BestEffort)
	enqueue(31, 0)

	sumRule := func(slave piconet.SlaveID) bool {
		total := 0
		for _, id := range p.FlowsAt(slave) {
			cfg, _ := p.FlowConfig(id)
			if cfg.Class == piconet.BestEffort && cfg.Dir == piconet.Down && p.FlowActive(id) {
				total += p.DownQueueLen(id)
			}
		}
		return total > 0
	}
	for _, at := range []sim.Time{0, ms, 2 * ms, 3*ms - 1, 3 * ms, 3*ms + 1, 5 * ms} {
		if err := s.Run(at); err != nil {
			t.Fatal(err)
		}
		for slave := piconet.SlaveID(1); slave <= 5; slave++ {
			if got, want := p.HasBEDownBacklog(slave), sumRule(slave); got != want {
				t.Fatalf("at %v slave %d: HasBEDownBacklog %v, sum of DownQueueLen > 0 is %v", at, slave, got, want)
			}
		}
		if got, want := p.HasBEDownBacklog(2), at >= 3*ms; got != want {
			t.Fatalf("at %v: slave 2 backlog %v, want %v (future head at 3ms)", at, got, want)
		}
		if !p.HasBEDownBacklog(1) || p.HasBEDownBacklog(3) {
			t.Fatalf("at %v: slave 1 backlog %v (want true), slave 3 %v (want false)",
				at, p.HasBEDownBacklog(1), p.HasBEDownBacklog(3))
		}
	}
}
