package admission

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
	"bluegs/internal/sco"
	"bluegs/internal/tspec"
)

// paperRequest returns a GS flow request exactly as in the paper's §4.1:
// CBR 64 kbps, packet sizes uniform in [144, 176], DH1+DH3 allowed.
func paperRequest(id piconet.FlowID, slave piconet.SlaveID, dir piconet.Direction, rate float64) Request {
	return Request{
		ID:      id,
		Slave:   slave,
		Dir:     dir,
		Spec:    tspec.CBR(20*time.Millisecond, 144, 176),
		Rate:    rate,
		Allowed: baseband.PaperTypes,
	}
}

func TestDeriveParamsPaperValues(t *testing.T) {
	req := paperRequest(1, 1, piconet.Up, 12800)
	p, err := DeriveParams(req, Config{})
	if err != nil {
		t.Fatalf("DeriveParams: %v", err)
	}
	// eta_min = 144 bytes (one DH3 at the minimum packet size).
	if p.EtaMin != 144 || p.WorstSize != 144 {
		t.Fatalf("eta_min = %v at size %d, want 144 at 144", p.EtaMin, p.WorstSize)
	}
	// t = eta/R = 144/12800 s = 11.25 ms.
	if p.Interval != 11250*time.Microsecond {
		t.Fatalf("interval = %v, want 11.25ms", p.Interval)
	}
	// Conservative exchange: DH3 both directions = 6 slots = 3.75 ms.
	if p.Exchange != 3750*time.Microsecond {
		t.Fatalf("exchange = %v, want 3.75ms", p.Exchange)
	}
	if p.MaxSegmentSlots != 3 {
		t.Fatalf("MaxSegmentSlots = %d, want 3", p.MaxSegmentSlots)
	}
}

// TestDeriveParamsAllocs pins the segmentation planning of one request to
// a reused plan buffer: a Fig. 4 flow spans 33 packet sizes, and one plan
// per size (twice over) would be about 66 allocations.
func TestDeriveParamsAllocs(t *testing.T) {
	req := paperRequest(1, 1, piconet.Up, 12800)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DeriveParams(req, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("DeriveParams: %v allocations per call, want <= 2", allocs)
	}
}

func TestDeriveParamsDirectionAware(t *testing.T) {
	req := paperRequest(1, 1, piconet.Up, 12800)
	p, err := DeriveParams(req, Config{DirectionAware: true})
	if err != nil {
		t.Fatalf("DeriveParams: %v", err)
	}
	// POLL (1 slot) + DH3 (3 slots) = 4 slots = 2.5 ms.
	if p.Exchange != 2500*time.Microsecond {
		t.Fatalf("direction-aware exchange = %v, want 2.5ms", p.Exchange)
	}
}

func TestDeriveParamsErrors(t *testing.T) {
	req := paperRequest(1, 1, piconet.Up, 12800)
	req.Rate = 100 // below token rate 8800
	if _, err := DeriveParams(req, Config{}); !errors.Is(err, ErrRateBelowToken) {
		t.Fatalf("low rate: err = %v", err)
	}
	req = paperRequest(0, 1, piconet.Up, 12800)
	if _, err := DeriveParams(req, Config{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero id: err = %v", err)
	}
	req = paperRequest(1, 1, piconet.Up, 12800)
	req.Allowed = baseband.NewTypeSet(baseband.TypeHV3)
	if _, err := DeriveParams(req, Config{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("no ACL types: err = %v", err)
	}
}

// TestDetermineXPaperValues re-derives the paper's §4.1 x values (the
// published text has OCR gaps; these are the values the paper's own
// formulas give): with Xi = 3.75 ms and poll streams of t = 16.36 ms
// (R = r = 8.8 kB/s), x_1 = 3.75 ms, x_2 = 7.5 ms, x_3 = 11.25 ms.
func TestDetermineXPaperValues(t *testing.T) {
	xi := 3750 * time.Microsecond
	// At R = token rate: t = 144/8800 s ~= 16.36 ms.
	sec := 144.0 / 8800.0
	interval := time.Duration(sec * float64(time.Second))
	st := Stream{Interval: interval, Exchange: xi}

	x1 := DetermineX(xi, nil, interval)
	if x1 != xi {
		t.Fatalf("x_1 = %v, want Xi = 3.75ms", x1)
	}
	x2 := DetermineX(xi, []Stream{st}, interval)
	if x2 != 7500*time.Microsecond {
		t.Fatalf("x_2 = %v, want 7.5ms", x2)
	}
	x3 := DetermineX(xi, []Stream{st, st}, interval)
	if x3 != 11250*time.Microsecond {
		t.Fatalf("x_3 = %v, want 11.25ms", x3)
	}
	// All feasible: x <= t.
	for i, x := range []time.Duration{x1, x2, x3} {
		if !Feasible(x, interval) {
			t.Fatalf("x_%d = %v infeasible against t = %v", i+1, x, interval)
		}
	}
}

func TestDetermineXFixedPointIteration(t *testing.T) {
	// A fast higher-priority stream forces the ceil term to grow across
	// iterations: t_1 = 2ms, xi_1 = 1.25ms, Xi = 1.25ms.
	// x(0)=1.25 -> ceil(1.25/2)=1 -> 2.5 -> ceil(2.5/2)=2 -> 3.75 ->
	// ceil(3.75/2)=2 -> 3.75 fixed point.
	xi := 1250 * time.Microsecond
	higher := []Stream{{Interval: 2 * time.Millisecond, Exchange: 1250 * time.Microsecond}}
	x := DetermineX(xi, higher, 20*time.Millisecond)
	if x != 3750*time.Microsecond {
		t.Fatalf("x = %v, want 3.75ms fixed point", x)
	}
}

func TestDetermineXInfeasibleStops(t *testing.T) {
	// Higher-priority load so heavy the fixed point exceeds own t: the
	// algorithm must stop (paper step f) and report a value > own.
	xi := 1250 * time.Microsecond
	higher := []Stream{
		{Interval: 2 * time.Millisecond, Exchange: 1875 * time.Microsecond},
		{Interval: 2 * time.Millisecond, Exchange: 1875 * time.Microsecond},
	}
	own := 5 * time.Millisecond
	x := DetermineX(xi, higher, own)
	if Feasible(x, own) {
		t.Fatalf("x = %v unexpectedly feasible against t = %v", x, own)
	}
}

func TestAdmitPaperScenarioPriorities(t *testing.T) {
	// The paper's four GS flows at R = 12.8 kB/s (the §4.1 maximum):
	// flow 1 at S1 (up), flows 2+3 at S2 (down+up, piggybacked),
	// flow 4 at S3 (up).
	c := NewController(Config{})
	reqs := []Request{
		paperRequest(1, 1, piconet.Up, 12800),
		paperRequest(2, 2, piconet.Down, 12800),
		paperRequest(3, 2, piconet.Up, 12800),
		paperRequest(4, 3, piconet.Up, 12800),
	}
	for _, r := range reqs {
		if _, err := c.Admit(r); err != nil {
			t.Fatalf("Admit(%d): %v", r.ID, err)
		}
	}
	flows := c.Flows()
	if len(flows) != 4 {
		t.Fatalf("admitted %d flows, want 4", len(flows))
	}
	// Flows 2 and 3 must share a priority (piggybacked pair).
	f2, _ := c.Find(2)
	f3, _ := c.Find(3)
	if f2.Priority != f3.Priority {
		t.Fatalf("pair priorities differ: %d vs %d", f2.Priority, f3.Priority)
	}
	if f2.Counterpart != 3 || f3.Counterpart != 2 {
		t.Fatalf("counterparts = %d/%d, want 3/2", f2.Counterpart, f3.Counterpart)
	}
	// There are three poll streams; their x values are Xi, 2Xi, 3Xi
	// with t = 144/12800 s = 11.25 ms (every ceil term is 1).
	wantX := map[int]time.Duration{
		1: 3750 * time.Microsecond,
		2: 7500 * time.Microsecond,
		3: 11250 * time.Microsecond,
	}
	for _, f := range flows {
		if want := wantX[f.Priority]; f.X != want {
			t.Fatalf("flow %d priority %d: x = %v, want %v", f.Request.ID, f.Priority, f.X, want)
		}
		if !Feasible(f.X, f.Params.Interval) {
			t.Fatalf("flow %d infeasible: x=%v t=%v", f.Request.ID, f.X, f.Params.Interval)
		}
		// Error terms: C = 144 bytes, D = x.
		if f.Terms.C != 144 || f.Terms.D != f.X {
			t.Fatalf("flow %d terms = %v", f.Request.ID, f.Terms)
		}
	}
	// The paper's derived maximum: at R = eta/x_3 = 144B/11.25ms =
	// 12.8 kB/s the lowest stream is exactly at the feasibility edge, so
	// the 12.8 kB/s requests must all be accepted, and the delay bound of
	// the lowest-priority flow is (176+144)/12800 s + 11.25 ms = 36.25 ms.
	f4, _ := c.Find(4)
	if f4.Bound != 36250*time.Microsecond {
		t.Fatalf("flow 4 bound = %v, want 36.25ms", f4.Bound)
	}
}

func TestAdmitRejectsBeyondCapacity(t *testing.T) {
	// At R = 12.8 kB/s each stream costs x increments of 3.75 ms and
	// t = 11.25 ms: three streams fit exactly; a fourth must be rejected
	// (x_4 = 15 ms > t = 11.25 ms).
	c := NewController(Config{})
	for i := 1; i <= 3; i++ {
		if _, err := c.Admit(paperRequest(piconet.FlowID(i), piconet.SlaveID(i), piconet.Up, 12800)); err != nil {
			t.Fatalf("Admit(%d): %v", i, err)
		}
	}
	_, err := c.Admit(paperRequest(4, 4, piconet.Up, 12800))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("fourth stream: err = %v, want rejection", err)
	}
	if want := "admission: flow rejected: no priority assignment satisfies x <= t for flow 4"; err.Error() != want {
		t.Fatalf("fourth stream: err = %q, want %q", err, want)
	}
	// State unchanged after rejection.
	if got := len(c.Flows()); got != 3 {
		t.Fatalf("flows after rejection = %d, want 3", got)
	}
}

// TestRejectionLeavesFlowsUntouched: a refused Admit, AdmitForDelay,
// Renegotiate, SetSuccessProb or SetSCOLinks leaves the controller
// holding the same *PlannedFlow values, each equal to a snapshot taken
// before the call.
func TestRejectionLeavesFlowsUntouched(t *testing.T) {
	if got := NewController(Config{}).Flows(); got != nil {
		t.Fatalf("empty controller Flows() = %v, want nil", got)
	}
	hv3, err := sco.NewChannel(baseband.TypeHV3)
	if err != nil {
		t.Fatal(err)
	}
	noACL := paperRequest(7, 7, piconet.Up, 12800)
	noACL.Allowed = baseband.NewTypeSet(baseband.TypeHV3)
	for _, tc := range []struct {
		name   string
		refuse func(c *Controller) error
	}{
		{"admit beyond capacity", func(c *Controller) error {
			_, err := c.Admit(paperRequest(4, 4, piconet.Up, 12800))
			return err
		}},
		{"admit duplicate id", func(c *Controller) error {
			_, err := c.Admit(paperRequest(2, 5, piconet.Up, 12800))
			return err
		}},
		{"admit duplicate endpoint", func(c *Controller) error {
			_, err := c.Admit(paperRequest(5, 1, piconet.Up, 12800))
			return err
		}},
		{"admit no ACL types", func(c *Controller) error {
			_, err := c.Admit(noACL)
			return err
		}},
		{"admit for unreachable delay", func(c *Controller) error {
			_, err := c.AdmitForDelay(DelayRequest{Request: paperRequest(4, 4, piconet.Up, 0), Target: 2 * time.Millisecond})
			return err
		}},
		{"admit pair member for delay", func(c *Controller) error {
			_, err := c.AdmitForDelay(DelayRequest{Request: paperRequest(4, 1, piconet.Down, 0), Target: 20 * time.Millisecond})
			return err
		}},
		{"renegotiate", func(c *Controller) error {
			_, err := c.Renegotiate(1, 2*time.Millisecond)
			return err
		}},
		{"success prob", func(c *Controller) error { return c.SetSuccessProb(0.5) }},
		{"sco link", func(c *Controller) error { return c.SetSCOLinks([]sco.Channel{hv3}) }},
	} {
		c := NewController(Config{})
		for i := 1; i <= 3; i++ {
			if _, err := c.Admit(paperRequest(piconet.FlowID(i), piconet.SlaveID(i), piconet.Up, 12800)); err != nil {
				t.Fatalf("%s: Admit(%d): %v", tc.name, i, err)
			}
		}
		before := c.Flows()
		snap := make([]PlannedFlow, len(before))
		for i, pf := range before {
			snap[i] = *pf
		}
		if err := tc.refuse(c); err == nil {
			t.Fatalf("%s: accepted, want a refusal", tc.name)
		}
		after := c.Flows()
		if len(after) != len(before) {
			t.Fatalf("%s: %d flows after refusal, want %d", tc.name, len(after), len(before))
		}
		for i := range before {
			if after[i] != before[i] {
				t.Fatalf("%s: flow %d replaced by the refused change", tc.name, snap[i].Request.ID)
			}
			if !reflect.DeepEqual(*before[i], snap[i]) {
				t.Fatalf("%s: flow %d changed by the refused change:\n got %+v\nwant %+v",
					tc.name, snap[i].Request.ID, *before[i], snap[i])
			}
		}
		if c.SuccessProb() != 1 || len(c.SCOLinks()) != 0 {
			t.Fatalf("%s: configuration changed by the refused change", tc.name)
		}
	}
}

func TestPiggybackingAcceptsMoreFlows(t *testing.T) {
	// Six flows as three up/down pairs at 12.8 kB/s: with piggybacking
	// they form three streams and fit; without it they are six streams
	// and must be rejected.
	reqs := []Request{
		paperRequest(1, 1, piconet.Down, 12800),
		paperRequest(2, 1, piconet.Up, 12800),
		paperRequest(3, 2, piconet.Down, 12800),
		paperRequest(4, 2, piconet.Up, 12800),
		paperRequest(5, 3, piconet.Down, 12800),
		paperRequest(6, 3, piconet.Up, 12800),
	}
	with := NewController(Config{})
	for _, r := range reqs {
		if _, err := with.Admit(r); err != nil {
			t.Fatalf("piggybacked Admit(%d): %v", r.ID, err)
		}
	}
	without := NewController(Config{}, WithoutPiggybacking())
	rejected := false
	for _, r := range reqs {
		if _, err := without.Admit(r); err != nil {
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatal("without piggybacking all six streams were accepted; pairing should matter")
	}
}

func TestAdmitPrefersKeepingExistingPriorities(t *testing.T) {
	// Admitting flows one by one: each new unpaired flow should slot in
	// at the lowest priority, leaving earlier flows untouched.
	c := NewController(Config{})
	for i := 1; i <= 3; i++ {
		if _, err := c.Admit(paperRequest(piconet.FlowID(i), piconet.SlaveID(i), piconet.Up, 12800)); err != nil {
			t.Fatalf("Admit(%d): %v", i, err)
		}
		f, _ := c.Find(piconet.FlowID(i))
		if f.Priority != i {
			t.Fatalf("flow %d priority = %d, want %d", i, f.Priority, i)
		}
	}
	f1, _ := c.Find(1)
	if f1.Priority != 1 {
		t.Fatalf("flow 1 priority changed to %d", f1.Priority)
	}
}

func TestAdmitDuplicateAndConflicts(t *testing.T) {
	c := NewController(Config{})
	if _, err := c.Admit(paperRequest(1, 1, piconet.Up, 12800)); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if _, err := c.Admit(paperRequest(1, 2, piconet.Up, 12800)); !errors.Is(err, ErrDuplicateFlow) {
		t.Fatalf("duplicate id: err = %v", err)
	}
	// Second GS flow in the same direction on the same slave.
	if _, err := c.Admit(paperRequest(2, 1, piconet.Up, 12800)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("same slave+dir: err = %v", err)
	}
}

func TestRemoveImprovesLowerFlows(t *testing.T) {
	c := NewController(Config{})
	for i := 1; i <= 3; i++ {
		if _, err := c.Admit(paperRequest(piconet.FlowID(i), piconet.SlaveID(i), piconet.Up, 12800)); err != nil {
			t.Fatalf("Admit(%d): %v", i, err)
		}
	}
	f3Before, _ := c.Find(3)
	xBefore := f3Before.X
	if err := c.Remove(1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, ok := c.Find(1); ok {
		t.Fatal("flow 1 still present after Remove")
	}
	f3After, _ := c.Find(3)
	if f3After.X >= xBefore {
		t.Fatalf("flow 3 x did not improve: %v -> %v", xBefore, f3After.X)
	}
	if err := c.Remove(99); !errors.Is(err, ErrUnknownFlow) {
		t.Fatalf("Remove unknown: err = %v", err)
	}
}

func TestPlanForDelayPaperSweep(t *testing.T) {
	// The paper's Fig. 5 sweep: all four GS flows request the same delay
	// bound. At a loose 46 ms target the rates should stay near the
	// token rate; at a tight 37 ms target the lowest-priority flow needs
	// nearly the maximal feasible rate.
	mk := func(target time.Duration) ([]DelayRequest, Config) {
		reqs := []DelayRequest{
			{Request: paperRequest(1, 1, piconet.Up, 0), Target: target},
			{Request: paperRequest(2, 2, piconet.Down, 0), Target: target},
			{Request: paperRequest(3, 2, piconet.Up, 0), Target: target},
			{Request: paperRequest(4, 3, piconet.Up, 0), Target: target},
		}
		return reqs, Config{}
	}

	reqs, cfg := mk(46 * time.Millisecond)
	c, err := PlanForDelay(reqs, cfg)
	if err != nil {
		t.Fatalf("PlanForDelay(46ms): %v", err)
	}
	for _, f := range c.Flows() {
		if f.Bound > 46*time.Millisecond {
			t.Fatalf("flow %d bound %v exceeds 46ms target", f.Request.ID, f.Bound)
		}
		if f.Request.Rate > 10500 {
			t.Fatalf("flow %d rate %v too high for a loose target", f.Request.ID, f.Request.Rate)
		}
	}

	reqs, cfg = mk(37 * time.Millisecond)
	c, err = PlanForDelay(reqs, cfg)
	if err != nil {
		t.Fatalf("PlanForDelay(37ms): %v", err)
	}
	var maxRate float64
	for _, f := range c.Flows() {
		if f.Bound > 37*time.Millisecond {
			t.Fatalf("flow %d bound %v exceeds 37ms target", f.Request.ID, f.Bound)
		}
		if f.Request.Rate > maxRate {
			maxRate = f.Request.Rate
		}
	}
	if maxRate < 11000 {
		t.Fatalf("tight target should force high rates, max = %v", maxRate)
	}

	// An impossible target must be rejected.
	reqs, cfg = mk(5 * time.Millisecond)
	if _, err := PlanForDelay(reqs, cfg); !errors.Is(err, ErrTargetInfeasible) {
		t.Fatalf("impossible target: err = %v", err)
	}
}

func TestPlanForDelayEmpty(t *testing.T) {
	c, err := PlanForDelay(nil, Config{})
	if err != nil {
		t.Fatalf("PlanForDelay(nil): %v", err)
	}
	if len(c.Flows()) != 0 {
		t.Fatal("expected empty controller")
	}
}

func TestMaxExchangeOverride(t *testing.T) {
	// A larger piconet-wide Xi (e.g. BE exchanges with DH5) raises x.
	cfg := Config{MaxExchange: 10 * 625 * time.Microsecond} // DH5+DH5
	c := NewController(cfg)
	pf, err := c.Admit(paperRequest(1, 1, piconet.Up, 8800))
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if pf.X != 6250*time.Microsecond {
		t.Fatalf("x = %v, want 6.25ms (10 slots)", pf.X)
	}
}

func BenchmarkFig2DetermineX(b *testing.B) {
	xi := 3750 * time.Microsecond
	sec := 144.0 / 8800.0
	interval := time.Duration(sec * float64(time.Second))
	streams := make([]Stream, 6)
	for i := range streams {
		streams[i] = Stream{Interval: interval, Exchange: xi}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DetermineX(xi, streams, interval)
	}
}

func BenchmarkFig3Admission(b *testing.B) {
	reqs := []Request{
		paperRequest(1, 1, piconet.Up, 12800),
		paperRequest(2, 2, piconet.Down, 12800),
		paperRequest(3, 2, piconet.Up, 12800),
		paperRequest(4, 3, piconet.Up, 12800),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewController(Config{})
		for _, r := range reqs {
			if _, err := c.Admit(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}
