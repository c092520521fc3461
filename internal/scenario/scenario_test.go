package scenario

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"bluegs/internal/core"
	"bluegs/internal/piconet"
)

// runPaper runs the Fig. 4 scenario briefly.
func runPaper(t *testing.T, target time.Duration, mutate func(*Spec)) *Result {
	t.Helper()
	spec := Paper(target)
	spec.Duration = 12 * time.Second
	if mutate != nil {
		mutate(&spec)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestPaperSpecShape(t *testing.T) {
	spec := Paper(40 * time.Millisecond)
	if len(spec.GS) != 4 || len(spec.BE) != 8 {
		t.Fatalf("GS=%d BE=%d, want 4/8", len(spec.GS), len(spec.BE))
	}
	// Flows 2 and 3 oppositely directed on slave 2.
	if spec.GS[1].Slave != 2 || spec.GS[2].Slave != 2 || spec.GS[1].Dir == spec.GS[2].Dir {
		t.Fatal("flows 2/3 must be an opposite pair on slave 2")
	}
	// BE rates per the paper.
	wantRates := []float64{41.6, 41.6, 47.2, 47.2, 52.8, 52.8, 58.4, 58.4}
	for i, b := range spec.BE {
		if b.RateKbps != wantRates[i] {
			t.Fatalf("BE[%d] rate = %v, want %v", i, b.RateKbps, wantRates[i])
		}
		if b.PacketSize != 176 {
			t.Fatalf("BE[%d] size = %d, want 176", i, b.PacketSize)
		}
	}
	// Total offered: 256 kbps GS + 400 kbps BE = 656 kbps (§4.2).
	gsTotal := 0.0
	for _, g := range spec.GS {
		gsTotal += 8 * float64(g.MaxSize+g.MinSize) / 2 / g.Interval.Seconds() / 1000
	}
	beTotal := 0.0
	for _, b := range spec.BE {
		beTotal += b.RateKbps
	}
	if math.Abs(gsTotal-256) > 1 {
		t.Fatalf("GS offered = %v kbps, want 256", gsTotal)
	}
	if math.Abs(beTotal-400) > 0.01 {
		t.Fatalf("BE offered = %v kbps, want 400", beTotal)
	}
}

func TestPaperRunLooseTarget(t *testing.T) {
	res := runPaper(t, 46*time.Millisecond, nil)
	// No GS bound violations (the paper's headline).
	if v := res.BoundViolations(); len(v) != 0 {
		t.Fatalf("bound violations: %+v", v)
	}
	// Every GS flow carries its full 64 kbps.
	for _, id := range []piconet.FlowID{1, 2, 3, 4} {
		f, ok := res.FlowByID(id)
		if !ok {
			t.Fatalf("flow %d missing", id)
		}
		if f.Kbps < 62 || f.Kbps > 66 {
			t.Fatalf("GS flow %d throughput = %.1f kbps, want ~64", id, f.Kbps)
		}
	}
	// At the loose requirement all BE flows achieve (nearly) their
	// offered load.
	for _, b := range res.Spec.BE {
		f, _ := res.FlowByID(b.ID)
		if f.Kbps < b.RateKbps*0.95 {
			t.Fatalf("BE flow %d = %.1f kbps, want ~%.1f", b.ID, f.Kbps, b.RateKbps)
		}
	}
	// Total carried ~656 kbps (§4.2).
	total := res.TotalKbps(piconet.Guaranteed) + res.TotalKbps(piconet.BestEffort)
	if total < 630 || total > 670 {
		t.Fatalf("total = %.1f kbps, want ~656", total)
	}
}

func TestPaperRunTightTargetSqueezesBE(t *testing.T) {
	loose := runPaper(t, 46*time.Millisecond, nil)
	tight := runPaper(t, 29*time.Millisecond, nil)
	if v := tight.BoundViolations(); len(v) != 0 {
		t.Fatalf("bound violations at tight target: %+v", v)
	}
	// GS still at full rate.
	for _, id := range []piconet.FlowID{1, 2, 3, 4} {
		f, _ := tight.FlowByID(id)
		if f.Kbps < 62 {
			t.Fatalf("GS flow %d = %.1f kbps at tight target", id, f.Kbps)
		}
	}
	// Tight requirements cost BE throughput (the Fig. 5 shape).
	beLoose := loose.TotalKbps(piconet.BestEffort)
	beTight := tight.TotalKbps(piconet.BestEffort)
	if beTight >= beLoose {
		t.Fatalf("BE throughput should drop with tighter targets: %.1f -> %.1f", beLoose, beTight)
	}
	// And GS consumes more slots.
	gsLoose := loose.Slots.GSData + loose.Slots.GSOverhead
	gsTight := tight.Slots.GSData + tight.Slots.GSOverhead
	if gsTight <= gsLoose {
		t.Fatalf("GS slots should grow with tighter targets: %d -> %d", gsLoose, gsTight)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Spec{}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty spec: err = %v", err)
	}
	spec := Paper(40 * time.Millisecond)
	spec.BEPoller = "bogus"
	if _, err := Run(spec); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("bogus poller: err = %v", err)
	}
}

func TestNewBEPollerKinds(t *testing.T) {
	kinds := []BEPollerKind{"", BEPFP, BERoundRobin, BEExhaustive, BEFEP, BEEDC, BEDemand, BEHOL}
	for _, k := range kinds {
		p, err := NewBEPoller(k)
		if err != nil {
			t.Fatalf("NewBEPoller(%q): %v", k, err)
		}
		if p == nil {
			t.Fatalf("NewBEPoller(%q) returned nil", k)
		}
	}
}

func TestFixedVsVariableModes(t *testing.T) {
	variable := runPaper(t, 40*time.Millisecond, nil)
	fixed := runPaper(t, 40*time.Millisecond, func(s *Spec) { s.Mode = core.FixedInterval })
	if len(fixed.BoundViolations()) != 0 {
		t.Fatalf("fixed-mode violations: %+v", fixed.BoundViolations())
	}
	fixedGS := fixed.Slots.GSData + fixed.Slots.GSOverhead
	variableGS := variable.Slots.GSData + variable.Slots.GSOverhead
	if variableGS >= fixedGS {
		t.Fatalf("variable mode should save GS slots: %d vs %d", variableGS, fixedGS)
	}
}

func TestReportRenders(t *testing.T) {
	res := runPaper(t, 40*time.Millisecond, func(s *Spec) { s.Duration = 3 * time.Second })
	out := res.Report().String()
	for _, want := range []string{"paper-fig4", "GS", "BE", "yes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("report shows violations:\n%s", out)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := runPaper(t, 40*time.Millisecond, func(s *Spec) { s.Duration = 3 * time.Second })
	b := runPaper(t, 40*time.Millisecond, func(s *Spec) { s.Duration = 3 * time.Second })
	for i := range a.Flows {
		fa, fb := a.Flows[i], b.Flows[i]
		// The Delay field is a per-run pointer; compare values only.
		fa.Delay, fb.Delay = nil, nil
		if fa != fb {
			t.Fatalf("non-deterministic flow result %d: %+v vs %+v", i, fa, fb)
		}
	}
}

func TestWithoutPiggybackingStillRunsSmallSet(t *testing.T) {
	// The full paper set admits without piggybacking only at looser
	// targets (more streams); verify the knob is wired by running with a
	// loose target.
	res := runPaper(t, 60*time.Millisecond, func(s *Spec) {
		s.WithoutPiggybacking = true
		s.Duration = 3 * time.Second
	})
	// Flows 2 and 3 must now be separate streams: their admission
	// records have no counterparts.
	for _, pf := range res.Admitted {
		if pf.Counterpart != piconet.None {
			t.Fatalf("flow %d has counterpart %d despite WithoutPiggybacking",
				pf.Request.ID, pf.Counterpart)
		}
	}
}
