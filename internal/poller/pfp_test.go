package poller

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// Dedicated PFP behavior: the arrival-rate estimator and the fairness
// account. The shared poller_test.go covers prediction edges and the
// deficit rule; these tests pin the estimator dynamics and the long-run
// fairness split.

// TestPFPLambdaTracksArrivalRate: feeding regular productive polls drives
// the estimated rate toward the true one; a long silent stretch decays it
// back down.
func TestPFPLambdaTracksArrivalRate(t *testing.T) {
	p := &PFP{}
	// One packet every 10 ms => 100 packets/s, sampled by polling at the
	// same cadence.
	now := sim.Time(0)
	for i := 0; i < 400; i++ {
		now += 10 * time.Millisecond
		p.Observe(Outcome{Slave: 1, End: now, UpBytes: 176, Slots: 4})
	}
	busy := p.state[1].lambda
	if busy < 60 || busy > 140 {
		t.Fatalf("lambda after steady 100/s traffic = %v, want ~100", busy)
	}
	// Now the slave goes quiet: empty polls at the same cadence.
	for i := 0; i < 400; i++ {
		now += 10 * time.Millisecond
		p.Observe(Outcome{Slave: 1, End: now, Slots: 2})
	}
	idle := p.state[1].lambda
	if idle >= busy/4 {
		t.Fatalf("lambda after silence = %v, want well below %v", idle, busy)
	}
	if idle < 0.1 {
		t.Fatalf("lambda floor violated: %v", idle)
	}
}

// TestPFPPredictionReflectsRate: a slave with a high estimated rate is
// predicted active much sooner after an empty poll than a slow one.
func TestPFPPredictionReflectsRate(t *testing.T) {
	v := newMockView(1, 2)
	p := &PFP{}
	now := sim.Time(0)
	// Slave 1 fast (poll every 5 ms, always data), slave 2 slow (always
	// empty).
	for i := 0; i < 200; i++ {
		now += 5 * time.Millisecond
		p.Observe(Outcome{Slave: 1, End: now, UpBytes: 176, Slots: 4})
		p.Observe(Outcome{Slave: 2, End: now, Slots: 2})
	}
	// Both queues known empty at `now`; shortly after, the fast slave's
	// prediction dominates.
	p.Observe(Outcome{Slave: 1, End: now, Slots: 2})
	at := now + 8*time.Millisecond
	fast := p.Predict(at, v, 1)
	slow := p.Predict(at, v, 2)
	if fast <= slow {
		t.Fatalf("Predict: fast %v <= slow %v", fast, slow)
	}
	if fast < 0.5 {
		t.Fatalf("fast slave prediction %v too low 8ms after empty", fast)
	}
}

// TestPFPLongRunFairSplit: two permanently backlogged slaves with equal
// weights receive equal service (within 10%) over a long horizon —
// the max-min fairness property the paper relies on.
func TestPFPLongRunFairSplit(t *testing.T) {
	v := newMockView(1, 2)
	v.backlog[1] = 1
	v.backlog[2] = 1
	p := &PFP{}
	now := sim.Time(0)
	slots := map[piconet.SlaveID]float64{}
	for i := 0; i < 1000; i++ {
		s, ok := p.Next(now, v)
		if !ok {
			t.Fatal("no slave")
		}
		// Slave 1's exchanges are three times longer: fairness must
		// account slots, not visits.
		used := 2
		if s == 1 {
			used = 6
		}
		now += sim.Time(used) * 625 * time.Microsecond
		p.Observe(Outcome{Slave: s, End: now, UpBytes: 176, Slots: used, UpMoreData: true})
		slots[s] += float64(used)
	}
	ratio := slots[1] / slots[2]
	if math.Abs(ratio-1) > 0.1 {
		t.Fatalf("slot split %v:%v (ratio %.3f), want equal within 10%%", slots[1], slots[2], ratio)
	}
}

// TestPFPActiveThreshold: a slave known empty becomes predicted active
// once P(data) = 1 - exp(-lambda*gap) reaches 0.6, and not before.
func TestPFPActiveThreshold(t *testing.T) {
	v := newMockView(1)
	p := &PFP{}
	st := p.slave(1)
	st.everPolled = true
	st.lambda = 1
	for _, c := range []struct {
		predict float64
		active  bool
	}{{0.59, false}, {0.61, true}, {0.9, true}, {0.1, false}} {
		gap := sim.Time(-math.Log1p(-c.predict) * float64(time.Second))
		if got := p.active(gap, v, 1, st); got != c.active {
			t.Fatalf("P(data) %v: active %v, want %v", c.predict, got, c.active)
		}
	}
}

// TestPFPIdleSlaveEventuallyProbed: even with a backlogged competitor,
// the idle slave's rising prediction eventually earns it a poll — PFP
// must not starve.
func TestPFPIdleSlaveEventuallyProbed(t *testing.T) {
	v := newMockView(1, 2)
	v.backlog[1] = 1 // slave 1 permanently backlogged
	p := &PFP{}
	now := sim.Time(0)
	polled2 := false
	for i := 0; i < 2000 && !polled2; i++ {
		s, _ := p.Next(now, v)
		if s == 2 {
			polled2 = true
		}
		now += 4 * 625 * time.Microsecond
		up := 0
		if s == 1 {
			up = 176
		}
		p.Observe(Outcome{Slave: s, End: now, UpBytes: up, Slots: 4, UpMoreData: s == 1})
	}
	if !polled2 {
		t.Fatal("idle slave never probed over 5 simulated seconds")
	}
}

// TestPFPRunningFairShare: the running served total and slave count
// behind FairShareFraction equal a brute-force recomputation, bit for
// bit, under a random outcome sequence; and two identical sequences pick
// identically.
func TestPFPRunningFairShare(t *testing.T) {
	created := []piconet.SlaveID{4, 1, 7, 3, 6, 2, 5} // first-Observe order
	v := newMockView(1, 2, 3, 4, 5, 6, 7)
	run := func() (picks []piconet.SlaveID, fracs []uint64) {
		p := &PFP{}
		rng := rand.New(rand.NewSource(9))
		now := sim.Time(0)
		for _, s := range created {
			now += time.Millisecond
			p.Observe(Outcome{Slave: s, End: now, Slots: 2})
		}
		for i := 0; i < 3000; i++ {
			s, ok := p.Next(now, v)
			if !ok {
				t.Fatal("no slave")
			}
			picks = append(picks, s)
			if rng.Intn(4) == 0 {
				s = piconet.SlaveID(1 + rng.Intn(7)) // an outcome the pick did not cause
			}
			now += sim.Time(1+rng.Intn(8)) * 625 * time.Microsecond
			o := Outcome{Slave: s, End: now, Slots: 2, UpMoreData: rng.Intn(3) == 0}
			if rng.Intn(2) == 0 {
				o.UpBytes, o.Slots = 1+rng.Intn(339), 2+2*rng.Intn(3)
			}
			p.Observe(o)

			var served float64
			for _, id := range created {
				served += p.state[id].servedSlots
			}
			for _, id := range v.slaves {
				want := p.state[id].servedSlots / (served / float64(len(created)))
				got := p.FairShareFraction(id)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d slave %d: FairShareFraction = %v, brute force %v", i, id, got, want)
				}
				fracs = append(fracs, math.Float64bits(got))
			}
		}
		return picks, fracs
	}
	picks1, fracs1 := run()
	picks2, fracs2 := run()
	if !slices.Equal(picks1, picks2) || !slices.Equal(fracs1, fracs2) {
		t.Fatal("identical outcome sequences gave different picks or fractions")
	}
}

// TestPFPDecayTableExact: every precomputed gap entry, and the terms
// Observe uses for gaps on and off the slot grid and past the table's
// end, equal the estimator formula bit for bit.
func TestPFPDecayTableExact(t *testing.T) {
	tau := (200 * time.Millisecond).Seconds()
	check := func(gap sim.Time, got pfpGapTerms) {
		t.Helper()
		dt := gap.Seconds()
		w, perSec := 1-math.Exp(-dt/tau), 1.0/dt
		if math.Float64bits(got.w) != math.Float64bits(w) || math.Float64bits(got.perSec) != math.Float64bits(perSec) {
			t.Fatalf("gap %v: terms {%v %v}, formula {%v %v}", gap, got.w, got.perSec, w, perSec)
		}
	}
	for k := 1; k < pfpGapSlots; k++ {
		check(sim.Time(k)*baseband.SlotDuration, pfpGaps[k])
	}
	gaps := []sim.Time{1, 624 * time.Microsecond, 625*time.Microsecond + 1, 3*baseband.SlotDuration - 1,
		(pfpGapSlots - 1) * baseband.SlotDuration, pfpGapSlots * baseband.SlotDuration,
		(pfpGapSlots + 7) * baseband.SlotDuration, 10 * time.Second}
	for k := 1; k <= 2*pfpGapSlots; k += 37 {
		gaps = append(gaps, sim.Time(k)*baseband.SlotDuration, sim.Time(k)*baseband.SlotDuration+sim.Time(k))
	}
	for _, gap := range gaps {
		check(gap, gapTerms(gap))
	}
}

// TestPFPActiveMatchesPredict: Next's activity test without exp agrees
// with Predict(...) >= 0.6 over log-spaced rates times gaps of 1 to 4,096
// slots and off-grid gaps, over every rate within 64 ulps of the boundary
// x* = -ln(1-0.6) at gaps of 0.5, 1 and 2 s (where λ·gap is exact), and
// across the guard band.
func TestPFPActiveMatchesPredict(t *testing.T) {
	v := newMockView(1)
	p := &PFP{}
	st := p.slave(1)
	st.everPolled = true
	compare := func(lambda float64, gap sim.Time) {
		t.Helper()
		st.lambda = lambda
		want := p.Predict(gap, v, 1) >= pfpThreshold
		if got := p.active(gap, v, 1, st); got != want {
			t.Fatalf("lambda %v (bits %#x), gap %v: active %v, Predict says %v",
				lambda, math.Float64bits(lambda), gap, got, want)
		}
	}
	for i := 0; i <= 40; i++ {
		lambda := 0.1 * math.Pow(1e5, float64(i)/40)
		for k := 1; k <= pfpGapSlots; k++ {
			gap := sim.Time(k) * baseband.SlotDuration
			compare(lambda, gap)
			compare(lambda, gap+sim.Time(k*k%625000)+1)
		}
	}
	xStar := -math.Log1p(-pfpThreshold)
	band := 4 * (pfpActiveHi - pfpActiveLo) / (pfpActiveHi + pfpActiveLo)
	for _, dt := range []float64{0.5, 1, 2} {
		gap := sim.Time(dt * float64(time.Second))
		x := xStar
		for range 64 {
			x = math.Nextafter(x, 0)
		}
		for range 129 {
			compare(x/dt, gap)
			x = math.Nextafter(x, math.Inf(1))
		}
		for j := -1000; j <= 1000; j++ {
			compare(xStar*(1+band*float64(j)/1000)/dt, gap)
		}
	}
}

// decisionView is a fixed 7-slave view for BenchmarkPFPDecision: slaves
// 1 and 4 always hold downlink backlog.
type decisionView struct{ slaves []piconet.SlaveID }

func (d *decisionView) Slaves() []piconet.SlaveID { return d.slaves }

func (*decisionView) HasDownBacklog(s piconet.SlaveID) bool { return s == 1 || s == 4 }

// BenchmarkPFPDecision times one best-effort decision: a Next over seven
// slaves and the Observe of its outcome, alternating data-carrying and
// empty exchanges of 2 or 4 slots.
func BenchmarkPFPDecision(b *testing.B) {
	v := &decisionView{slaves: []piconet.SlaveID{1, 2, 3, 4, 5, 6, 7}}
	p := &PFP{}
	now := sim.Time(0)
	i := 0
	b.ReportAllocs()
	for b.Loop() {
		s, _ := p.Next(now, v)
		o := Outcome{Slave: s, End: now + 2*baseband.SlotDuration, Slots: 2}
		if i%3 == 0 {
			o.End, o.Slots, o.UpBytes = now+4*baseband.SlotDuration, 4, 121
		}
		p.Observe(o)
		now = o.End
		i++
	}
}
