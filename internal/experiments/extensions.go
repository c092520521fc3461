package experiments

import (
	"fmt"
	"strconv"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/harness"
	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
	"bluegs/internal/stats"
)

// E5Row reports one bit-error-rate point of the retransmission experiment,
// aggregated over replications (delivery pools packet counts, the worst
// delay takes the worst replication, rates are means).
type E5Row struct {
	BER float64
	// Recovery reports whether the saved-bandwidth retransmission policy
	// (the paper's future work) was active.
	Recovery bool
	// GSDelivery is the fraction of offered GS packets delivered intact.
	GSDelivery float64
	// GSMaxDelay is the worst GS delay observed; WorstBound the largest
	// (error-free) analytic bound — retransmission delay is not covered
	// by the Guaranteed Service contract, which is exactly the paper's
	// future-work gap.
	GSMaxDelay    time.Duration
	WorstBound    time.Duration
	BEKbps        float64
	RetransSlotsS float64
}

// RetransmissionStudy implements the paper's stated future work (§5): a
// non-ideal radio environment where transmission errors occur and the
// bandwidth saved by the variable-interval poller absorbs ARQ
// retransmissions. The Fig. 4 scenario runs at a 40 ms requirement across
// a bit-error-rate sweep with baseband ARQ enabled, without and with the
// saved-bandwidth recovery policy ("which retransmissions to use the saved
// bandwidth for").
func RetransmissionStudy(cfg Config, bers []float64) ([]E5Row, *stats.Table, error) {
	cfg = cfg.withDefaults()
	if len(bers) == 0 {
		bers = []float64{0, 1e-5, 5e-5, 1e-4, 5e-4}
	}
	points, err := retransmissionGrid.run(cfg, retransmissionPoints(bers))
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: E5: %w", err)
	}
	tbl := stats.NewTable(
		fmt.Sprintf("E5 (future work): GS flows over a lossy radio with ARQ (%v per run%s)",
			cfg.Duration, cfg.repNote()),
		"BER", "recovery", "gs_delivery", "gs_max_delay", "worst_bound", "be_kbps", "rtx_slots/s")
	var rows []E5Row
	for _, p := range points {
		rs := p.Runs
		var offered, delivered uint64
		var maxDelay, worstBound time.Duration
		for _, r := range rs {
			for _, f := range r.Result.Flows {
				if f.Class != piconet.Guaranteed {
					continue
				}
				offered += f.Offered
				delivered += f.Delivered
				if f.DelayMax > maxDelay {
					maxDelay = f.DelayMax
				}
				if f.Bound > worstBound {
					worstBound = f.Bound
				}
			}
		}
		row := E5Row{
			BER:        p.P.ber,
			Recovery:   p.P.recovery,
			GSMaxDelay: maxDelay,
			WorstBound: worstBound,
			BEKbps:     classKbps(rs, piconet.BestEffort).Mean,
			RetransSlotsS: harness.Aggregate(rs, func(r *scenario.Result) float64 {
				return float64(r.Slots.Retransmit) / r.Elapsed.Seconds()
			}).Mean,
		}
		if offered > 0 {
			// In-flight packets at the horizon are not failures.
			row.GSDelivery = float64(delivered) / float64(offered)
		}
		rows = append(rows, row)
		tbl.AddRow(fmt.Sprintf("%.0e", row.BER), row.Recovery,
			fmt.Sprintf("%.4f", row.GSDelivery),
			maxDelay.Round(time.Microsecond), worstBound.Round(time.Microsecond),
			stats.FormatKbps(row.BEKbps), fmt.Sprintf("%.1f", row.RetransSlotsS))
	}
	return rows, tbl, nil
}

// retransmissionPoint is one (bit error rate, recovery) point of E5.
type retransmissionPoint struct {
	ber      float64
	recovery bool
}

// retransmissionPoints expands the BER axis: every rate without and with
// the recovery policy, except the lossless rate, which runs once
// (recovery is meaningless without losses).
func retransmissionPoints(bers []float64) []retransmissionPoint {
	var points []retransmissionPoint
	for _, ber := range bers {
		points = append(points, retransmissionPoint{ber, false})
		if ber != 0 {
			points = append(points, retransmissionPoint{ber, true})
		}
	}
	return points
}

// retransmissionGrid is the E5 grid: the Fig. 4 piconet at a 40 ms
// requirement with ARQ over a BER radio. Labels render the BER
// losslessly, so nearby rates (1e-5 and 1.4e-5) stay apart.
var retransmissionGrid = grid[retransmissionPoint]{
	name: "extensions",
	label: func(p retransmissionPoint) string {
		cell := "ber=" + strconv.FormatFloat(p.ber, 'g', -1, 64)
		if p.recovery {
			cell += "/recovery"
		}
		return cell
	},
	build: func(p retransmissionPoint) scenario.Spec {
		spec := scenario.Paper(40 * time.Millisecond)
		if p.ber > 0 {
			spec.Radio = scenario.BERRadio(p.ber)
			spec.ARQ = true
			spec.LossRecovery = p.recovery
		}
		return spec
	},
}

// E6Row reports one configuration of the SCO coexistence experiment,
// aggregated over replications.
type E6Row struct {
	Label      string
	Bound      time.Duration
	GSMaxDelay time.Duration
	GSKbps     float64
	BEKbps     float64
	SCOKbps    float64
	SCOSlotsS  float64
	Violations int
}

// SCOCoexistence runs a Guaranteed Service voice flow and best-effort
// traffic with and without a reserved HV3 SCO link in the same piconet —
// the setting the HOL-priority and demand-based related work addresses
// (§3). With SCO present, admission folds the reservations into x_i as an
// implicit highest-priority stream and direction-aware exchange times keep
// GS exchanges within the 4-slot windows; best-effort flows are restricted
// to DH1 for the same reason.
func SCOCoexistence(cfg Config) ([]E6Row, *stats.Table, error) {
	cfg = cfg.withDefaults()
	build := func(withSCO bool) scenario.Spec {
		spec := scenario.Spec{
			Name: "sco-coexistence",
			GS: []scenario.GSFlow{{
				ID: 1, Slave: 1, Dir: piconet.Up,
				Interval: 20 * time.Millisecond, MinSize: 144, MaxSize: 176,
			}},
			BE: []scenario.BEFlow{
				{ID: 2, Slave: 2, Dir: piconet.Down, RateKbps: 40, PacketSize: 27,
					Allowed: baseband.NewTypeSet(baseband.TypeDH1)},
				{ID: 3, Slave: 2, Dir: piconet.Up, RateKbps: 40, PacketSize: 27,
					Allowed: baseband.NewTypeSet(baseband.TypeDH1)},
			},
			DelayTarget:    52 * time.Millisecond,
			DirectionAware: true,
		}
		if withSCO {
			spec.SCO = []scenario.SCOLinkSpec{{Slave: 3, Type: baseband.TypeHV3}}
		}
		return spec
	}
	g := grid[bool]{
		name: "e6",
		label: func(withSCO bool) string {
			if withSCO {
				return "HV3 SCO link at S3"
			}
			return "no SCO link"
		},
		build: build,
	}
	points, err := g.run(cfg, []bool{false, true})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: E6: %w", err)
	}
	tbl := stats.NewTable(
		fmt.Sprintf("E6: GS + BE with and without an HV3 SCO link (%v per run%s)",
			cfg.Duration, cfg.repNote()),
		"configuration", "gs_bound", "gs_max_delay", "gs_kbps", "be_kbps", "sco_kbps", "sco_slots/s", "bound_ok")
	var rows []E6Row
	for _, p := range points {
		rs := p.Runs
		gsFlow, _ := rs[0].Result.FlowByID(1)
		row := E6Row{
			Label:  p.Cell,
			Bound:  gsFlow.Bound,
			GSKbps: classKbps(rs, piconet.Guaranteed).Mean,
			BEKbps: classKbps(rs, piconet.BestEffort).Mean,
			SCOKbps: harness.Aggregate(rs, func(r *scenario.Result) float64 {
				return r.SCOKbps[3]
			}).Mean,
			SCOSlotsS: harness.Aggregate(rs, func(r *scenario.Result) float64 {
				return float64(r.Slots.SCO) / r.Elapsed.Seconds()
			}).Mean,
			Violations: cellViolations(rs),
		}
		for _, r := range rs {
			if rf, ok := r.Result.FlowByID(1); ok && rf.DelayMax > row.GSMaxDelay {
				row.GSMaxDelay = rf.DelayMax
			}
		}
		rows = append(rows, row)
		ok := "yes"
		if row.Violations > 0 {
			ok = "VIOLATED"
		}
		tbl.AddRow(row.Label, row.Bound.Round(time.Microsecond),
			row.GSMaxDelay.Round(time.Microsecond),
			stats.FormatKbps(row.GSKbps), stats.FormatKbps(row.BEKbps),
			stats.FormatKbps(row.SCOKbps), fmt.Sprintf("%.0f", row.SCOSlotsS), ok)
	}
	return rows, tbl, nil
}
