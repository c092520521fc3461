package experiments

import (
	"strings"
	"testing"
	"time"

	"bluegs/internal/harness"
	"bluegs/internal/scenario"
)

func TestRetransmissionStudy(t *testing.T) {
	bers := []float64{0, 1e-4}
	rows, tbl, err := RetransmissionStudy(quick, bers)
	if err != nil {
		t.Fatalf("RetransmissionStudy: %v", err)
	}
	// 1 lossless row + 2 rows (recovery off/on) at the lossy point.
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	lossless := rows[0]
	if lossless.BER != 0 || lossless.GSDelivery < 0.99 {
		t.Fatalf("lossless row: %+v", lossless)
	}
	if lossless.RetransSlotsS != 0 {
		t.Fatalf("lossless retransmit slots = %v", lossless.RetransSlotsS)
	}
	var noRec, withRec E5Row
	for _, r := range rows[1:] {
		if r.Recovery {
			withRec = r
		} else {
			noRec = r
		}
	}
	// The future-work gap: without recovery, retries eat the poll budget
	// and delays blow past the bound.
	if noRec.GSMaxDelay < noRec.WorstBound {
		t.Fatalf("expected bound violations without recovery: max %v vs bound %v",
			noRec.GSMaxDelay, noRec.WorstBound)
	}
	// The saved-bandwidth policy restores delivery and near-bound delays.
	if withRec.GSDelivery < 0.995 {
		t.Fatalf("recovery delivery = %v, want ~1", withRec.GSDelivery)
	}
	if withRec.GSDelivery <= noRec.GSDelivery {
		t.Fatalf("recovery should improve delivery: %v vs %v",
			withRec.GSDelivery, noRec.GSDelivery)
	}
	if withRec.GSMaxDelay >= noRec.GSMaxDelay {
		t.Fatalf("recovery should cut worst delay: %v vs %v",
			withRec.GSMaxDelay, noRec.GSMaxDelay)
	}
	if withRec.GSMaxDelay > noRec.WorstBound+10*time.Millisecond {
		t.Fatalf("recovery worst delay %v far above bound %v",
			withRec.GSMaxDelay, withRec.WorstBound)
	}
	if withRec.RetransSlotsS == 0 {
		t.Fatal("no retransmission slots recorded at BER 1e-4")
	}
	if !strings.Contains(tbl.String(), "future work") {
		t.Fatal("table missing label")
	}
}

func TestSCOCoexistence(t *testing.T) {
	rows, tbl, err := SCOCoexistence(quick)
	if err != nil {
		t.Fatalf("SCOCoexistence: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	without, with := rows[0], rows[1]
	for _, r := range rows {
		if r.Violations != 0 {
			t.Fatalf("%q violated the bound", r.Label)
		}
		// The GS voice flow carries its full 64 kbps either way.
		if r.GSKbps < 62 || r.GSKbps > 66 {
			t.Fatalf("%q GS = %.1f kbps, want ~64", r.Label, r.GSKbps)
		}
	}
	// SCO costs: a looser achievable bound and one third of the slots.
	if with.Bound <= without.Bound {
		t.Fatalf("SCO should loosen the GS bound: %v vs %v", with.Bound, without.Bound)
	}
	if with.SCOSlotsS < 520 || with.SCOSlotsS > 540 {
		t.Fatalf("SCO slots/s = %v, want ~533", with.SCOSlotsS)
	}
	if with.SCOKbps < 126 || with.SCOKbps > 130 {
		t.Fatalf("SCO kbps = %v, want ~128 (64 each way)", with.SCOKbps)
	}
	if without.SCOKbps != 0 || without.SCOSlotsS != 0 {
		t.Fatalf("no-SCO row shows SCO activity: %+v", without)
	}
	// Best effort survives in both configurations (DH1 flows fit the
	// 4-slot windows).
	if with.BEKbps < without.BEKbps*0.9 {
		t.Fatalf("BE collapsed under SCO: %.1f vs %.1f", with.BEKbps, without.BEKbps)
	}
	if !strings.Contains(tbl.String(), "HV3") {
		t.Fatal("table missing SCO row")
	}
}

// TestRetransmissionAndBaselinePoints: the E5 grid runs the lossless rate
// once and every lossy rate without and with recovery; the A2 grid runs
// the baseline piconet under each poller, in the order given.
func TestRetransmissionAndBaselinePoints(t *testing.T) {
	cfg := harness.SweepConfig{Duration: time.Second, Seed: 1}
	_, a2 := baselineGrid.harnessGrid([]scenario.BEPollerKind{scenario.BERoundRobin, scenario.BEPFP})
	cmp := a2.Sweep(cfg)
	if len(cmp.Runs) != 2 {
		t.Fatalf("comparison runs = %d", len(cmp.Runs))
	}
	if cmp.Runs[0].Spec.BEPoller != scenario.BERoundRobin {
		t.Fatalf("cell 0 poller = %q", cmp.Runs[0].Spec.BEPoller)
	}
	_, e5 := retransmissionGrid.harnessGrid(retransmissionPoints([]float64{0, 1e-4}))
	ext := e5.Sweep(cfg)
	if len(ext.Runs) != 3 {
		t.Fatalf("extension runs = %d, want 3", len(ext.Runs))
	}
	if ext.Runs[0].Spec.ARQ {
		t.Fatal("lossless run must not enable ARQ")
	}
	if !ext.Runs[1].Spec.ARQ || ext.Runs[1].Spec.LossRecovery {
		t.Fatalf("run 1 = %+v, want ARQ without recovery", ext.Runs[1].Spec)
	}
	if !ext.Runs[2].Spec.LossRecovery {
		t.Fatal("run 2 must enable recovery")
	}
}

// TestRetransmissionStudyDuplicateBER: a BER given twice is one point,
// so its two rows (recovery off and on) render once.
func TestRetransmissionStudyDuplicateBER(t *testing.T) {
	rows, tbl, err := RetransmissionStudy(quick, []float64{1e-4, 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || strings.Count(tbl.String(), "1e-04") != 2 {
		t.Fatalf("rows = %d, want 2\n%s", len(rows), tbl)
	}
}
