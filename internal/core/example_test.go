package core_test

import (
	"fmt"
	"time"

	"bluegs/internal/admission"
	"bluegs/internal/baseband"
	"bluegs/internal/core"
	"bluegs/internal/piconet"
	"bluegs/internal/sim"
	"bluegs/internal/tspec"
)

// voiceSource feeds flow with a CBR source of uniform [minSize, maxSize]
// packets every interval, starting at time zero.
func voiceSource(s *sim.Simulator, pn *piconet.Piconet, flow piconet.FlowID, interval time.Duration, minSize, maxSize int) {
	var tick func()
	tick = func() {
		size := minSize
		if maxSize > minSize {
			size += s.Rand().Intn(maxSize - minSize + 1)
		}
		if err := pn.EnqueuePacket(flow, size); err != nil {
			fmt.Println("enqueue:", err)
			return
		}
		s.After(interval, tick)
	}
	s.Schedule(0, tick)
}

// Admit one 64 kbps Guaranteed Service flow (paper Figs. 2 and 3), run the
// piconet for ten simulated seconds under the GS scheduler, and check the
// measured packet delays against the exported delay bound.
func Example() {
	// A voice-like source: one packet of 144..176 bytes every 20 ms,
	// slave-to-master, on DH1 and DH3 packets. Requesting a 12.8 kB/s
	// fluid rate returns the poll plan and the delay bound.
	ctrl := admission.NewController(admission.Config{
		MaxExchange: baseband.SlotsToDuration(6), // worst ongoing exchange: DH3 both ways
	})
	flow, err := ctrl.Admit(admission.Request{
		ID: 1, Slave: 1, Dir: piconet.Up,
		Spec: tspec.CBR(20*time.Millisecond, 144, 176), Rate: 12800, Allowed: baseband.PaperTypes,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("admitted: poll interval t=%v, worst lag x=%v, error terms %v, delay bound %v\n",
		flow.Params.Interval.Round(time.Microsecond), flow.X, flow.Terms, flow.Bound.Round(time.Microsecond))

	s := sim.New(sim.WithSeed(7))
	pn := piconet.New(s)
	if err := pn.AddSlave(1); err != nil {
		fmt.Println(err)
		return
	}
	if err := pn.AddFlow(piconet.FlowConfig{
		ID: 1, Slave: 1, Dir: piconet.Up, Class: piconet.Guaranteed, Allowed: baseband.PaperTypes,
	}); err != nil {
		fmt.Println(err)
		return
	}
	sched, err := core.New(pn, ctrl.Flows())
	if err != nil {
		fmt.Println(err)
		return
	}
	pn.SetScheduler(sched)
	voiceSource(s, pn, 1, 20*time.Millisecond, 144, 176)
	if err := pn.Start(); err != nil {
		fmt.Println(err)
		return
	}
	if err := s.Run(10 * time.Second); err != nil {
		fmt.Println(err)
		return
	}

	delays, _ := pn.FlowDelayStats(1)
	delivered, _ := pn.FlowDelivered(1)
	fmt.Printf("delivered %d packets (%.1f kbps)\n", delivered.Packets(), delivered.Kbps(s.Now()))
	fmt.Printf("delay: mean %v, p99 %v, max %v (bound %v)\n",
		delays.Mean().Round(time.Microsecond), delays.Quantile(0.99).Round(time.Microsecond),
		delays.Max().Round(time.Microsecond), flow.Bound.Round(time.Microsecond))
	fmt.Println("bound held for every packet:", delays.Max() <= flow.Bound)
	// Output:
	// admitted: poll interval t=11.25ms, worst lag x=3.75ms, error terms (C=144.0B, D=3.75ms), delay bound 28.75ms
	// delivered 500 packets (64.2 kbps)
	// delay: mean 7.45ms, p99 12.5ms, max 12.5ms (bound 28.75ms)
	// bound held for every packet: true
}

// Three voice flows with different delay targets share a piconet with a
// saturated best-effort slave. The receiver-side Guaranteed Service
// computation (RFC 2212) picks each flow's fluid rate from the exported
// (C, D) error terms, admission assigns priorities, and the run checks
// every flow against its own bound while best effort takes the leftover
// slots.
func Example_delayTargets() {
	// Three stacked single-direction streams interfere through the x_i
	// fixed point (each lower priority waits for every higher one), so
	// the spread of feasible targets is coarser than for a lone flow.
	targets := []time.Duration{
		38 * time.Millisecond, // interactive voice: tight
		44 * time.Millisecond, // ordinary voice
		50 * time.Millisecond, // one-way streaming: loose
	}
	var reqs []admission.DelayRequest
	for i, target := range targets {
		reqs = append(reqs, admission.DelayRequest{
			Request: admission.Request{
				ID: piconet.FlowID(i + 1), Slave: piconet.SlaveID(i + 1), Dir: piconet.Up,
				Spec: tspec.CBR(20*time.Millisecond, 144, 176), Allowed: baseband.PaperTypes,
			},
			Target: target,
		})
	}
	ctrl, err := admission.PlanForDelay(reqs, admission.Config{MaxExchange: baseband.SlotsToDuration(6)})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, pf := range ctrl.Flows() {
		fmt.Printf("flow %d: target %v -> R=%.0f B/s, priority %d, exports (C=%.0fB, D=%v), bound %v\n",
			pf.Request.ID, targets[pf.Request.ID-1], pf.Request.Rate, pf.Priority,
			pf.Terms.C, pf.Terms.D, pf.Bound.Round(time.Microsecond))
	}

	// Three GS slaves plus one best-effort slave fed by a 2 ms firehose.
	s := sim.New(sim.WithSeed(11))
	pn := piconet.New(s)
	for slave := piconet.SlaveID(1); slave <= 4; slave++ {
		if err := pn.AddSlave(slave); err != nil {
			fmt.Println(err)
			return
		}
	}
	for id := piconet.FlowID(1); id <= 4; id++ {
		cfg := piconet.FlowConfig{
			ID: id, Slave: piconet.SlaveID(id), Dir: piconet.Up,
			Class: piconet.Guaranteed, Allowed: baseband.PaperTypes,
		}
		if id == 4 {
			cfg.Dir, cfg.Class = piconet.Down, piconet.BestEffort
		}
		if err := pn.AddFlow(cfg); err != nil {
			fmt.Println(err)
			return
		}
	}
	sched, err := core.New(pn, ctrl.Flows())
	if err != nil {
		fmt.Println(err)
		return
	}
	pn.SetScheduler(sched)
	for id := piconet.FlowID(1); id <= 3; id++ {
		voiceSource(s, pn, id, 20*time.Millisecond, 144, 176)
	}
	voiceSource(s, pn, 4, 2*time.Millisecond, 176, 176)
	if err := pn.Start(); err != nil {
		fmt.Println(err)
		return
	}
	if err := s.Run(20 * time.Second); err != nil {
		fmt.Println(err)
		return
	}

	for _, pf := range ctrl.Flows() {
		delays, _ := pn.FlowDelayStats(pf.Request.ID)
		fmt.Printf("flow %d: %d packets, max delay %v, bound held: %v\n", pf.Request.ID,
			delays.Count(), delays.Max().Round(time.Microsecond), delays.Max() <= pf.Bound)
	}
	be, _ := pn.FlowDelivered(4)
	fmt.Printf("best effort carried %.1f kbps from the leftover slots\n", be.Kbps(s.Now()))
	// Output:
	// flow 1: target 38ms -> R=9343 B/s, priority 1, exports (C=144B, D=3.75ms), bound 38ms
	// flow 2: target 44ms -> R=8800 B/s, priority 2, exports (C=144B, D=7.5ms), bound 43.864ms
	// flow 3: target 50ms -> R=8800 B/s, priority 3, exports (C=144B, D=11.25ms), bound 47.614ms
	// flow 1: 1000 packets, max delay 17.5ms, bound held: true
	// flow 2: 1000 packets, max delay 21.25ms, bound held: true
	// flow 3: 1000 packets, max delay 22.5ms, bound held: true
	// best effort carried 338.3 kbps from the leftover slots
}
