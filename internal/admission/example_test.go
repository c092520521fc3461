package admission_test

import (
	"fmt"
	"time"

	"bluegs/internal/admission"
	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
	"bluegs/internal/tspec"
)

// Admitting the paper's four GS flows at the maximal rate: flows 2 and 3
// piggyback on one poll stream, so three streams carry four flows.
func ExampleController_Admit() {
	ctrl := admission.NewController(admission.Config{
		MaxExchange: baseband.SlotsToDuration(6),
	})
	spec := tspec.CBR(20*time.Millisecond, 144, 176)
	flows := []struct {
		id    piconet.FlowID
		slave piconet.SlaveID
		dir   piconet.Direction
	}{
		{1, 1, piconet.Up}, {2, 2, piconet.Down}, {3, 2, piconet.Up}, {4, 3, piconet.Up},
	}
	for _, f := range flows {
		pf, err := ctrl.Admit(admission.Request{
			ID: f.id, Slave: f.slave, Dir: f.dir,
			Spec: spec, Rate: 12800, Allowed: baseband.PaperTypes,
		})
		if err != nil {
			fmt.Println("rejected:", err)
			return
		}
		fmt.Printf("flow %d: priority %d, x=%v, bound=%v\n",
			f.id, pf.Priority, pf.X, pf.Bound)
	}
	// Output:
	// flow 1: priority 1, x=3.75ms, bound=28.75ms
	// flow 2: priority 2, x=7.5ms, bound=32.5ms
	// flow 3: priority 2, x=7.5ms, bound=32.5ms
	// flow 4: priority 3, x=11.25ms, bound=36.25ms
}

// The Fig. 2 fixed point by hand: a stream behind two identical streams at
// the paper's maximal rate waits up to three worst-case exchanges.
func ExampleDetermineX() {
	xi := baseband.SlotsToDuration(6) // DH3 both ways: 3.75ms
	interval := 11250 * time.Microsecond
	higher := []admission.Stream{
		{Interval: interval, Exchange: xi},
		{Interval: interval, Exchange: xi},
	}
	x := admission.DetermineX(xi, higher, interval)
	fmt.Println(x, "feasible:", admission.Feasible(x, interval))
	// Output: 11.25ms feasible: true
}

// Fig. 3 step by step on three up/down pairs at the §4.1 maximal rate,
// exactly the load where pairing decides acceptance. With piggybacking
// three poll streams serve all six flows; a pairing-oblivious controller
// needs a stream per flow and must refuse half of them. Tearing a pair
// down then shrinks every remaining flow's lag x. (Counterpart 0: the
// flow owns its poll stream.)
func Example_piggybacking() {
	spec := tspec.CBR(20*time.Millisecond, 144, 176)
	var reqs []admission.Request
	for slave := piconet.SlaveID(1); slave <= 3; slave++ {
		for _, dir := range []piconet.Direction{piconet.Down, piconet.Up} {
			reqs = append(reqs, admission.Request{
				ID: piconet.FlowID(len(reqs) + 1), Slave: slave, Dir: dir,
				Spec: spec, Rate: 12800, Allowed: baseband.PaperTypes,
			})
		}
	}
	cfg := admission.Config{MaxExchange: baseband.SlotsToDuration(6)}
	ctrl := admission.NewController(cfg)
	naive := admission.NewController(cfg, admission.WithoutPiggybacking())
	for _, r := range reqs {
		pf, err := ctrl.Admit(r)
		if err != nil {
			fmt.Println("rejected:", err)
			return
		}
		_, naiveErr := naive.Admit(r)
		fmt.Printf("flow %d (%v at S%d): priority %d, x=%v, counterpart %d; without piggybacking accepted: %v\n",
			r.ID, r.Dir, r.Slave, pf.Priority, pf.X, pf.Counterpart, naiveErr == nil)
	}
	before := map[piconet.FlowID]time.Duration{}
	for _, pf := range ctrl.Flows() {
		before[pf.Request.ID] = pf.X
	}
	if err := ctrl.Remove(1); err != nil {
		fmt.Println(err)
		return
	}
	if err := ctrl.Remove(2); err != nil {
		fmt.Println(err)
		return
	}
	for _, pf := range ctrl.Flows() {
		fmt.Printf("after removing flows 1+2: flow %d x %v -> %v, bound %v\n",
			pf.Request.ID, before[pf.Request.ID], pf.X, pf.Bound)
	}
	// Output:
	// flow 1 (down at S1): priority 1, x=3.75ms, counterpart 0; without piggybacking accepted: true
	// flow 2 (up at S1): priority 1, x=3.75ms, counterpart 1; without piggybacking accepted: true
	// flow 3 (down at S2): priority 2, x=7.5ms, counterpart 0; without piggybacking accepted: true
	// flow 4 (up at S2): priority 2, x=7.5ms, counterpart 3; without piggybacking accepted: false
	// flow 5 (down at S3): priority 3, x=11.25ms, counterpart 0; without piggybacking accepted: false
	// flow 6 (up at S3): priority 3, x=11.25ms, counterpart 5; without piggybacking accepted: false
	// after removing flows 1+2: flow 3 x 7.5ms -> 3.75ms, bound 28.75ms
	// after removing flows 1+2: flow 4 x 7.5ms -> 3.75ms, bound 28.75ms
	// after removing flows 1+2: flow 5 x 11.25ms -> 7.5ms, bound 32.5ms
	// after removing flows 1+2: flow 6 x 11.25ms -> 7.5ms, bound 32.5ms
}
