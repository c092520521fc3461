package scenario_test

import (
	"math/rand"
	"testing"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/faults"
	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
)

// twoStateRadio is a stateful channel with a Good and a Bad state that
// counts its Deliver calls. Every call draws exactly one RNG value, so
// the call count is also an exact draw account. With flip set the state
// toggles at every call before the packet's fate is read, and the Bad
// state loses the packet; without it the channel stays Good and lossless.
type twoStateRadio struct {
	flip, bad bool
	calls     int
}

func (r *twoStateRadio) Deliver(rng *rand.Rand, _ baseband.PacketType) bool {
	r.calls++
	rng.Float64()
	if r.flip {
		r.bad = !r.bad
	}
	return !r.bad
}

func (*twoStateRadio) Name() string { return "two-state" }

// sliceTracer collects every exchange.
type sliceTracer struct{ entries []piconet.TraceEntry }

func (s *sliceTracer) Trace(e piconet.TraceEntry) { s.entries = append(s.entries, e) }

// outageSpec is the composition workload: one fixed-size GS voice flow,
// no ARQ, no supervision — the engine keeps polling straight through the
// outage window, so the window's exchanges are observable as losses.
func outageSpec(outage bool) scenario.Spec {
	spec := scenario.Spec{
		// Down direction: the master's data leg is the one the outage
		// fails, so window exchanges surface as Lost trace entries (a
		// failed bare POLL to an Up flow carries no packet to mark lost).
		GS: []scenario.GSFlow{{
			ID: 1, Slave: 1, Dir: piconet.Down,
			Interval: 20 * time.Millisecond,
			MinSize:  176, MaxSize: 176,
		}},
		DelayTarget: 100 * time.Millisecond,
		Duration:    4 * time.Second,
		Seed:        7,
	}
	if outage {
		spec.Faults = faults.Plan{Outages: []faults.LinkOutage{
			{Slave: 1, Start: time.Second, End: 2 * time.Second},
		}}
	}
	return spec
}

const outageStart, outageEnd = time.Second, 2 * time.Second

// inWindow reports whether the exchange started inside the outage window.
func inWindow(e piconet.TraceEntry) bool {
	return e.Start >= outageStart && e.Start < outageEnd
}

// TestOutageForcesLossWithZeroDraws: during a declared outage every
// exchange fails outright — regardless of the channel's state — and the
// radio model is never consulted, so it consumes no RNG draws at all. The
// call count proves the accounting exactly: a pinned-Good channel answers
// twice per exchange outside the window and never inside it.
func TestOutageForcesLossWithZeroDraws(t *testing.T) {
	run := func(outage bool) (int, []piconet.TraceEntry, *scenario.Result) {
		// Pinned Good, lossless: every consulted leg delivers.
		ch := &twoStateRadio{}
		tr := &sliceTracer{}
		res, err := scenario.RunWith(outageSpec(outage), scenario.Hooks{Radio: ch, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		return ch.calls, tr.entries, res
	}

	// An exchange begun just before the horizon consults the model but
	// completes — and traces — past it, so the call count may run exactly
	// one untraced exchange (two draws) ahead of the trace.
	pairsUpTo := func(what string, calls, exchanges int) {
		t.Helper()
		if d := calls - 2*exchanges; d != 0 && d != 2 {
			t.Fatalf("%s: %d Deliver calls over %d exchanges, want exactly 2 per exchange (+ at most one untraced)",
				what, calls, exchanges)
		}
	}
	baseCalls, baseEntries, baseRes := run(false)
	pairsUpTo("fault-free run", baseCalls, len(baseEntries))
	for _, e := range baseEntries {
		if e.Lost {
			t.Fatalf("pinned-Good channel lost an exchange at %v", e.Start)
		}
	}

	calls, entries, res := run(true)
	outside, inside, insideLost := 0, 0, 0
	for _, e := range entries {
		if inWindow(e) {
			inside++
			if e.Lost {
				insideLost++
			}
			// Zero delivery inside the window, whatever the chain state:
			// the fault gate fails the exchange before the model is asked.
			if e.DownBytes > 0 || e.UpBytes > 0 {
				t.Fatalf("exchange at %v inside the outage delivered %d+%d bytes",
					e.Start, e.DownBytes, e.UpBytes)
			}
			continue
		}
		outside++
		if e.Lost {
			t.Fatalf("exchange at %v outside the outage lost on a lossless channel", e.Start)
		}
	}
	if inside == 0 {
		t.Fatal("no exchanges inside the outage window — the engine stopped polling")
	}
	if insideLost == 0 {
		t.Fatal("no packet-bearing exchange inside the outage was marked lost")
	}
	pairsUpTo("faulted run", calls, outside)
	// The window's packets were really lost.
	f, _ := res.FlowByID(1)
	bf, _ := baseRes.FlowByID(1)
	if f.Delivered >= bf.Delivered {
		t.Fatalf("faulted run delivered %d >= fault-free %d", f.Delivered, bf.Delivered)
	}
}

// TestOutageFreezesChainState: a channel that toggles its state at every
// call holds a state that is a pure function of the number of Deliver
// calls. If the outage gating consumed draws or advanced the channel, the
// end-of-run state would disagree with the call parity; instead the
// channel resumes after the window exactly where it stopped.
func TestOutageFreezesChainState(t *testing.T) {
	for _, outage := range []bool{false, true} {
		ch := &twoStateRadio{flip: true}
		if _, err := scenario.RunWith(outageSpec(outage), scenario.Hooks{Radio: ch}); err != nil {
			t.Fatal(err)
		}
		if ch.calls == 0 {
			t.Fatal("radio model never consulted")
		}
		// Starting Good, the state flips once per call: after n calls the
		// channel is Bad exactly when n is odd.
		if want := ch.calls%2 == 1; ch.bad != want {
			t.Fatalf("outage=%t: channel state %t after %d calls, want %t — the fault gating perturbed the channel",
				outage, ch.bad, ch.calls, want)
		}
	}
}
