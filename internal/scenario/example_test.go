package scenario_test

import (
	"fmt"
	"time"

	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
)

// The paper's future-work scenario (§5): a Guaranteed Service voice flow
// over a lossy radio with baseband ARQ, with and without the
// saved-bandwidth recovery policy. Without it, retries eat the flow's own
// poll budget and delays diverge; with it, lost segments are retransmitted
// in leftover capacity and the delay stays near the error-free bound,
// without touching any flow's x_i.
func Example_lossyVoice() {
	for _, recovery := range []bool{false, true} {
		res, err := scenario.Run(scenario.Spec{
			GS: []scenario.GSFlow{{
				ID: 1, Slave: 1, Dir: piconet.Up,
				Interval: 20 * time.Millisecond, MinSize: 144, MaxSize: 176,
			}},
			BE: []scenario.BEFlow{
				{ID: 2, Slave: 2, Dir: piconet.Down, RateKbps: 120, PacketSize: 176},
				{ID: 3, Slave: 2, Dir: piconet.Up, RateKbps: 120, PacketSize: 176},
			},
			DelayTarget:  40 * time.Millisecond,
			Duration:     30 * time.Second,
			Radio:        scenario.BERRadio(1e-4),
			ARQ:          true,
			LossRecovery: recovery,
		})
		if err != nil {
			fmt.Println(err)
			return
		}
		voice, _ := res.FlowByID(1)
		fmt.Printf("recovery %v: delivered %d of %d, delay mean %v, p99 %v, max %v (error-free bound %v), BE %.1f kbps\n",
			recovery, voice.Delivered, voice.Offered,
			voice.DelayMean.Round(time.Millisecond), voice.DelayP99.Round(time.Millisecond),
			voice.DelayMax.Round(time.Millisecond), voice.Bound.Round(time.Microsecond),
			res.TotalKbps(piconet.BestEffort))
	}
	// Output:
	// recovery false: delivered 1422 of 1501, delay mean 837ms, p99 1.562s, max 1.586s (error-free bound 40ms), BE 240.0 kbps
	// recovery true: delivered 1500 of 1501, delay mean 12ms, p99 39ms, max 59ms (error-free bound 40ms), BE 240.0 kbps
}

// A v2 scenario file with a timeline runs through the online admission
// protocol: Guaranteed Service flows arrive and leave mid-run, and every
// request passes the paper's Fig. 3 test against the then-current flow
// set. A synchronous voice call is refused because the admitted GS
// contracts could not be scheduled around its reservations, and a
// high-rate flow because no priority assignment keeps every x_i within
// its poll interval, while each admitted flow's measured delay stays
// under the bound exported at its admission.
func Example_churn() {
	spec, err := scenario.LoadFile("testdata/churn-example.json")
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := scenario.Run(spec)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, a := range res.Admissions {
		fmt.Printf("%v %s flow %d slave %d: accepted %v\n", a.At, a.Op, a.Flow, a.Slave, a.Accepted)
	}
	for _, f := range res.Flows {
		if f.Class == piconet.Guaranteed {
			fmt.Printf("GS flow %d: max delay %v, bound %v\n", f.ID, f.DelayMax, f.Bound.Round(time.Microsecond))
		}
	}
	fmt.Println("bound violations:", len(res.BoundViolations()))
	// Output:
	// 3s add-gs flow 10 slave 2: accepted true
	// 6s add-sco flow 0 slave 3: accepted false
	// 9s add-gs flow 11 slave 4: accepted true
	// 12s add-gs flow 12 slave 4: accepted true
	// 15s add-gs flow 15 slave 5: accepted false
	// 20s remove-flow flow 10 slave 2: accepted true
	// 26s add-be flow 13 slave 5: accepted true
	// GS flow 1: max delay 21.25ms, bound 40.114ms
	// GS flow 10: max delay 21.25ms, bound 42.614ms
	// GS flow 11: max delay 22.5ms, bound 45.114ms
	// GS flow 12: max delay 20.625ms, bound 45.114ms
	// bound violations: 0
}
