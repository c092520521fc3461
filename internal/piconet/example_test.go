package piconet_test

import (
	"fmt"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
	"bluegs/internal/sim"
)

// greedyScheduler is a minimal custom polling discipline: it always polls
// slave 1's best-effort channel. Real disciplines live in internal/poller
// and internal/core.
type greedyScheduler struct{}

func (greedyScheduler) Decide(_ sim.Time, _ int) piconet.Action { return piconet.PollBE(1) }
func (greedyScheduler) OnOutcome(*piconet.Outcome)              {}
func (greedyScheduler) OnDownArrival(piconet.FlowID, sim.Time)  {}

// Building a piconet from scratch: one slave, one best-effort downlink
// flow, a custom scheduler, and one packet pushed through it.
func Example() {
	s := sim.New(sim.WithSeed(1))
	pn := piconet.New(s)
	if err := pn.AddSlave(1); err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := pn.AddFlow(piconet.FlowConfig{
		ID: 1, Slave: 1, Dir: piconet.Down,
		Class: piconet.BestEffort, Allowed: baseband.PaperTypes,
	}); err != nil {
		fmt.Println("error:", err)
		return
	}
	pn.SetScheduler(greedyScheduler{})
	if err := pn.Start(); err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := pn.EnqueuePacket(1, 176); err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := s.Run(100 * time.Millisecond); err != nil {
		fmt.Println("error:", err)
		return
	}
	delivered, _ := pn.FlowDelivered(1)
	delays, _ := pn.FlowDelayStats(1)
	fmt.Printf("delivered %d packet(s), delay %v\n", delivered.Packets(), delays.Max())
	// A 176-byte packet rides one DH3: three slots of air time.
	// Output: delivered 1 packet(s), delay 1.875ms
}
