package admission

import (
	"math"
	"testing"
	"time"

	"bluegs/internal/piconet"
)

// TestBestEffortPlanClampsAtAnalyticCap: delay targets below the §4.1
// supportable minimum drive the lowest-priority stream to (nearly) the
// analytic rate cap eta_min/x = 12.8 kB/s, and never beyond it.
func TestBestEffortPlanClampsAtAnalyticCap(t *testing.T) {
	reqs := []DelayRequest{
		{Request: paperRequest(1, 1, piconet.Up, 0), Target: 28 * time.Millisecond},
		{Request: paperRequest(2, 2, piconet.Down, 0), Target: 28 * time.Millisecond},
		{Request: paperRequest(3, 2, piconet.Up, 0), Target: 28 * time.Millisecond},
		{Request: paperRequest(4, 3, piconet.Up, 0), Target: 28 * time.Millisecond},
	}
	ctrl, err := PlanForDelayBestEffort(reqs, Config{MaxExchange: 3750 * time.Microsecond})
	if err != nil {
		t.Fatalf("PlanForDelayBestEffort: %v", err)
	}
	const rateCap = 12800.0 // eta_min / x_3 = 144B / 11.25ms
	var lowest *PlannedFlow
	for _, pf := range ctrl.Flows() {
		if pf.Request.Rate > rateCap+1 {
			t.Fatalf("flow %d rate %.1f exceeds the analytic rateCap %.0f",
				pf.Request.ID, pf.Request.Rate, rateCap)
		}
		if !Feasible(pf.X, pf.Params.Interval) {
			t.Fatalf("flow %d infeasible in clamped plan", pf.Request.ID)
		}
		if lowest == nil || pf.Priority > lowest.Priority {
			lowest = pf
		}
	}
	// The lowest-priority stream is pinned against the cap (within the
	// planner's convergence tolerance) because its target is unreachable.
	if math.Abs(lowest.Request.Rate-rateCap) > rateCap*0.02 {
		t.Fatalf("lowest stream rate %.1f, want ~%.0f (clamped)", lowest.Request.Rate, rateCap)
	}
	// Its achieved bound is the §4.1 supportable minimum, not the target.
	if lowest.Bound < 36*time.Millisecond || lowest.Bound > 37*time.Millisecond {
		t.Fatalf("lowest stream bound %v, want ~36.25ms", lowest.Bound)
	}
}

// TestBestEffortPlanMeetsReachableTargets: targets above the supportable
// minimum are met exactly, matching the strict planner.
func TestBestEffortPlanMeetsReachableTargets(t *testing.T) {
	mk := func() []DelayRequest {
		return []DelayRequest{
			{Request: paperRequest(1, 1, piconet.Up, 0), Target: 40 * time.Millisecond},
			{Request: paperRequest(2, 2, piconet.Down, 0), Target: 40 * time.Millisecond},
			{Request: paperRequest(3, 2, piconet.Up, 0), Target: 40 * time.Millisecond},
			{Request: paperRequest(4, 3, piconet.Up, 0), Target: 40 * time.Millisecond},
		}
	}
	cfg := Config{MaxExchange: 3750 * time.Microsecond}
	clamped, err := PlanForDelayBestEffort(mk(), cfg)
	if err != nil {
		t.Fatalf("PlanForDelayBestEffort: %v", err)
	}
	strict, err := PlanForDelay(mk(), cfg)
	if err != nil {
		t.Fatalf("PlanForDelay: %v", err)
	}
	for _, pf := range clamped.Flows() {
		if pf.Bound > 40*time.Millisecond {
			t.Fatalf("flow %d bound %v exceeds the reachable target", pf.Request.ID, pf.Bound)
		}
		ref, ok := strict.Find(pf.Request.ID)
		if !ok {
			t.Fatalf("flow %d missing from strict plan", pf.Request.ID)
		}
		// Both planners should land in the same neighbourhood (the
		// clamped planner may overshoot slightly due to its growth
		// steps, never undershoot feasibility).
		if pf.Request.Rate < ref.Request.Rate*0.98 {
			t.Fatalf("flow %d clamped rate %.1f far below strict %.1f",
				pf.Request.ID, pf.Request.Rate, ref.Request.Rate)
		}
	}
}

// BenchmarkPlanForDelayBestEffort plans the Fig. 5 flow set at a 30 ms
// target, below the supportable minimum of the lowest-priority stream:
// the clamping search backtracks at the feasibility edge, so one plan
// runs 276 trial admissions, the most of any Fig. 5 target.
func BenchmarkPlanForDelayBestEffort(b *testing.B) {
	reqs := []DelayRequest{
		{Request: paperRequest(1, 1, piconet.Up, 0), Target: 30 * time.Millisecond},
		{Request: paperRequest(2, 2, piconet.Down, 0), Target: 30 * time.Millisecond},
		{Request: paperRequest(3, 2, piconet.Up, 0), Target: 30 * time.Millisecond},
		{Request: paperRequest(4, 3, piconet.Up, 0), Target: 30 * time.Millisecond},
	}
	cfg := Config{MaxExchange: 3750 * time.Microsecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PlanForDelayBestEffort(reqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
