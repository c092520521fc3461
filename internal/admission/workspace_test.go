package admission

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
)

// TestPlanForDelayBestEffortAllocs gates the allocations of the clamping
// planner on the Fig. 5 flow set at 30 ms, whose search runs 276 trial
// admissions: they all run in the planner's two workspaces, so what
// remains is the request bookkeeping, the workspaces, the shapes and the
// copy of the returned plan. One allocation per trial would add hundreds.
func TestPlanForDelayBestEffortAllocs(t *testing.T) {
	reqs := goldenDelayReqs(paperFlows, 30*time.Millisecond)
	cfg := Config{MaxExchange: 3750 * time.Microsecond}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := PlanForDelayBestEffort(reqs, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("PlanForDelayBestEffort: %v allocations per call, want <= 64", allocs)
	}
}

// TestAdmitForDelayAllocs pins the allocations of the online negotiation
// of a fourth paper flow against three accepted ones: the request's shape,
// one workspace whose buffers grow at the first trial, and the copy of the
// accepted plan. Every trial rate after the first allocates nothing.
func TestAdmitForDelayAllocs(t *testing.T) {
	reqs := goldenDelayReqs(paperFlows, 40*time.Millisecond)
	base := NewController(Config{MaxExchange: baseband.SlotsToDuration(6)})
	for _, dr := range reqs[:3] {
		if _, err := base.AdmitForDelay(dr); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		// A shallow copy is a safe trial (see Renegotiate).
		trial := *base
		if _, err := trial.AdmitForDelay(reqs[3]); err != nil {
			t.Fatal(err)
		}
	})
	if want := 10.0; allocs != want {
		t.Fatalf("AdmitForDelay of a fourth flow: %v allocations, want %v", allocs, want)
	}
}

// TestPlannedFlowsOutliveLaterPlans checks the escape rule: the flows a
// caller was handed — by a planner, an accepted AdmitForDelay or a
// refused Renegotiate — keep their values through every later planning
// call, on the same controller and on fresh ones.
func TestPlannedFlowsOutliveLaterPlans(t *testing.T) {
	cfg := Config{MaxExchange: baseband.SlotsToDuration(6)}
	type kept struct {
		what string
		pf   *PlannedFlow
		val  PlannedFlow
	}
	var all []kept
	keep := func(what string, flows ...*PlannedFlow) {
		for _, pf := range flows {
			all = append(all, kept{what, pf, *pf})
		}
	}

	planned, err := PlanForDelayBestEffort(goldenDelayReqs(paperFlows, 30*time.Millisecond), cfg)
	if err != nil {
		t.Fatal(err)
	}
	keep("PlanForDelayBestEffort", planned.Flows()...)

	online := NewController(cfg)
	for _, dr := range goldenDelayReqs(paperFlows, 40*time.Millisecond) {
		pf, err := online.AdmitForDelay(dr)
		if err != nil {
			t.Fatal(err)
		}
		keep("AdmitForDelay", pf)
		keep("Flows after AdmitForDelay", online.Flows()...)
	}
	if _, err := online.Renegotiate(1, time.Millisecond); err == nil {
		t.Fatal("Renegotiate to 1 ms accepted")
	}
	keep("Flows after a refused Renegotiate", online.Flows()...)

	// Later planning on the same controllers, accepted or refused, and
	// on fresh ones.
	extra := goldenDelayReqs(slices.Concat(paperFlows, []planFlow{{4, piconet.Up}}), 100*time.Millisecond)[4]
	accepted := 0
	for _, c := range []*Controller{planned, online} {
		if _, err := c.AdmitForDelay(extra); err == nil {
			accepted++
		}
		if _, err := c.Renegotiate(2, 44*time.Millisecond); err == nil {
			accepted++
		}
		if _, err := c.Renegotiate(1, time.Millisecond); err == nil {
			t.Fatal("Renegotiate to 1 ms accepted")
		}
		if c.Remove(extra.Request.ID) == nil {
			accepted++
		}
		if c.SetSuccessProb(1) == nil {
			accepted++
		}
	}
	if accepted < 4 {
		t.Fatalf("only %d later changes accepted, want at least 4", accepted)
	}
	for target := 28 * time.Millisecond; target <= 46*time.Millisecond; target += 6 * time.Millisecond {
		reqs := goldenDelayReqs(paperFlows, target)
		if _, err := PlanForDelayBestEffort(reqs, cfg); err != nil {
			t.Fatal(err)
		}
		_, _ = PlanForDelay(reqs, cfg)
		fresh := NewController(cfg)
		for _, dr := range reqs {
			_, _ = fresh.AdmitForDelay(dr)
		}
	}

	for _, k := range all {
		if *k.pf != k.val {
			t.Errorf("%s: flow %d changed after later plans:\n got %+v\nwant %+v",
				k.what, k.val.Request.ID, *k.pf, k.val)
		}
	}

	// Concurrent planning calls share nothing: under -race this reports
	// any buffer two calls touch, and the plans must equal serial ones.
	t.Run("concurrent", func(t *testing.T) {
		targets := []time.Duration{28 * time.Millisecond, 30 * time.Millisecond, 36 * time.Millisecond, 44 * time.Millisecond}
		render := func(target time.Duration) []byte {
			var w bytes.Buffer
			reqs := goldenDelayReqs(paperFlows, target)
			c, err := PlanForDelayBestEffort(reqs, cfg)
			writePlan(&w, c, err)
			c, err = PlanForDelay(reqs, cfg)
			writePlan(&w, c, err)
			c = NewController(cfg)
			for _, dr := range reqs {
				if _, err := c.AdmitForDelay(dr); err != nil {
					fmt.Fprintf(&w, "admit %d: error: %v\n", dr.Request.ID, err)
				}
			}
			writePlan(&w, c, nil)
			return w.Bytes()
		}
		want := make([][]byte, len(targets))
		for i, target := range targets {
			want[i] = render(target)
		}
		got := make([][]byte, len(targets))
		var wg sync.WaitGroup
		for i, target := range targets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = render(target)
			}()
		}
		wg.Wait()
		for i := range targets {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("target %v: concurrent plan\n%s\ndiffers from serial\n%s", targets[i], got[i], want[i])
			}
		}
	})
}
