// Benchmarks regenerating every table and figure of the paper's evaluation
// (see internal/README.md for the experiment index). Each benchmark runs
// the corresponding experiment end to end and reports its headline
// quantities as benchmark metrics; the rendered table is printed once per
// benchmark.
//
// Experiments execute through internal/harness, so each benchmark's sweep
// already fans out across GOMAXPROCS workers with bit-identical results;
// BenchmarkFigure5SweepWorkers measures that scaling directly.
//
// The per-iteration simulation horizon is kept short so `go test -bench=.`
// completes quickly; the cmd tools run the paper's full 530 s horizon
// (their outputs are recorded in EXPERIMENTS.md).
package bluegs_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"bluegs/internal/experiments"
	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
	"bluegs/internal/stats"
)

// benchCfg is the per-iteration experiment configuration (Workers 0: the
// harness uses GOMAXPROCS).
var benchCfg = experiments.Config{Duration: 5 * time.Second, Seed: 1}

// printOnce prints each experiment table a single time across benchmark
// reruns.
var printOnce sync.Map

func printTable(name string, tbl *stats.Table) {
	if _, loaded := printOnce.LoadOrStore(name, true); loaded {
		return
	}
	fmt.Printf("\n%s\n", tbl.String())
}

// BenchmarkFigure5ThroughputVsDelayReq regenerates Figure 5: per-slave
// throughput versus the Guaranteed Service delay requirement.
func BenchmarkFigure5ThroughputVsDelayReq(b *testing.B) {
	b.ReportAllocs()
	var lastBE, lastGS float64
	for i := 0; i < b.N; i++ {
		rows, tbl, err := experiments.Figure5(benchCfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Violations > 0 {
				b.Fatalf("bound violated at %v", r.Target)
			}
		}
		last := rows[len(rows)-1]
		lastBE, lastGS = last.BEKbps, last.GSKbps
		printTable("fig5", tbl)
	}
	b.ReportMetric(lastGS, "GS_kbps@46ms")
	b.ReportMetric(lastBE, "BE_kbps@46ms")
}

// BenchmarkTableT1AnalyticalParams recomputes the §4.1 derived parameters
// (x values, admissible rate cap, supportable bounds).
func BenchmarkTableT1AnalyticalParams(b *testing.B) {
	var t1 experiments.T1
	for i := 0; i < b.N; i++ {
		var tbl *stats.Table
		var err error
		t1, tbl, err = experiments.TableT1()
		if err != nil {
			b.Fatal(err)
		}
		printTable("t1", tbl)
	}
	b.ReportMetric(t1.MaxRate, "max_R_bytes/s")
	b.ReportMetric(float64(t1.MinBound)/1e6, "min_bound_ms")
}

// BenchmarkTableT2DelayCompliance verifies the §4.2 claim that no packet
// exceeds its delay bound, across delay requirements.
func BenchmarkTableT2DelayCompliance(b *testing.B) {
	var worstMargin float64
	for i := 0; i < b.N; i++ {
		rows, tbl, err := experiments.TableT2(benchCfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		worstMargin = 1e18
		for _, r := range rows {
			if !r.OK {
				b.Fatalf("flow %d at %v violated its bound", r.Flow, r.Target)
			}
			if margin := float64(r.Bound - r.MaxSeen); margin < worstMargin {
				worstMargin = margin
			}
		}
		printTable("t2", tbl)
	}
	b.ReportMetric(worstMargin/1e6, "worst_margin_ms")
}

// BenchmarkTableT3TotalThroughput reproduces the §4.2 capacity result
// (~656 kbps carried at a loose requirement).
func BenchmarkTableT3TotalThroughput(b *testing.B) {
	var t3 experiments.T3
	for i := 0; i < b.N; i++ {
		var tbl *stats.Table
		var err error
		t3, tbl, err = experiments.TableT3(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		printTable("t3", tbl)
	}
	b.ReportMetric(t3.TotalKbps, "total_kbps")
	b.ReportMetric(t3.BEKbps, "BE_kbps")
}

// BenchmarkTableT4SCOComparison reproduces the §5 SCO-versus-poller
// comparison.
func BenchmarkTableT4SCOComparison(b *testing.B) {
	var gsBusy, scoReserved float64
	for i := 0; i < b.N; i++ {
		rows, tbl, err := experiments.TableT4(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		scoReserved = rows[0].BusySlots
		gsBusy = rows[1].BusySlots
		printTable("t4", tbl)
	}
	b.ReportMetric(scoReserved, "sco_slots/s")
	b.ReportMetric(gsBusy, "gs_tightest_slots/s")
}

// BenchmarkAblationImprovements quantifies the §3.2 improvement rules
// (experiment A1).
func BenchmarkAblationImprovements(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		rows, tbl, err := experiments.AblationImprovements(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		fixed := rows[0].GSSlots
		all := rows[len(rows)-1].GSSlots
		saved = float64(fixed - all)
		printTable("a1", tbl)
	}
	b.ReportMetric(saved, "slots_saved")
}

// BenchmarkBaselinePollers compares the related-work best-effort pollers
// (experiment A2).
func BenchmarkBaselinePollers(b *testing.B) {
	var pfpFairness float64
	for i := 0; i < b.N; i++ {
		rows, tbl, err := experiments.BaselinePollers(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Poller == "pfp" {
				pfpFairness = r.Fairness
			}
		}
		printTable("a2", tbl)
	}
	b.ReportMetric(pfpFairness, "pfp_fairness")
}

// BenchmarkRetransmissionStudy runs the paper's future-work experiment
// (E5): lossy radio with ARQ, with and without the saved-bandwidth
// recovery policy.
func BenchmarkRetransmissionStudy(b *testing.B) {
	var recoveredDelivery float64
	for i := 0; i < b.N; i++ {
		rows, tbl, err := experiments.RetransmissionStudy(benchCfg, []float64{0, 1e-4})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Recovery {
				recoveredDelivery = r.GSDelivery
			}
		}
		printTable("e5", tbl)
	}
	b.ReportMetric(recoveredDelivery, "delivery@1e-4")
}

// BenchmarkSCOCoexistence runs the SCO coexistence experiment (E6): a GS
// voice flow plus best effort with and without a reserved HV3 link.
func BenchmarkSCOCoexistence(b *testing.B) {
	var scoKbps float64
	for i := 0; i < b.N; i++ {
		rows, tbl, err := experiments.SCOCoexistence(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Violations > 0 {
				b.Fatalf("%q violated the bound", r.Label)
			}
			if r.SCOKbps > 0 {
				scoKbps = r.SCOKbps
			}
		}
		printTable("e6", tbl)
	}
	b.ReportMetric(scoKbps, "sco_kbps")
}

// BenchmarkDelayDistribution runs the E7 delay-distribution
// characterisation at a 38 ms requirement.
func BenchmarkDelayDistribution(b *testing.B) {
	var worstCDF float64
	for i := 0; i < b.N; i++ {
		rows, tbl, _, err := experiments.DelayDistribution(benchCfg, 38*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		worstCDF = 1
		for _, r := range rows {
			if r.Max > r.Bound {
				b.Fatalf("flow %d: max %v > bound %v", r.Flow, r.Max, r.Bound)
			}
			if r.CDFAtBound < worstCDF {
				worstCDF = r.CDFAtBound
			}
		}
		printTable("e7", tbl)
	}
	b.ReportMetric(worstCDF, "worst_cdf_at_bound")
}

// BenchmarkFigure5SweepWorkers measures the harness's parallel scaling on
// a replicated Figure 5 sweep: the same grid at one worker versus all
// cores. Rows are bit-identical either way (the determinism tests enforce
// it); only the wall clock changes.
func BenchmarkFigure5SweepWorkers(b *testing.B) {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.Config{
				Duration:     2 * time.Second,
				Seed:         1,
				Replications: 3,
				Workers:      workers,
			}
			simulated := float64(len(experiments.DefaultFig5Targets())) *
				float64(cfg.Replications) * cfg.Duration.Seconds()
			for i := 0; i < b.N; i++ {
				rows, _, err := experiments.Figure5(cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Violations > 0 {
						b.Fatalf("bound violated at %v", r.Target)
					}
				}
			}
			perOp := b.Elapsed() / time.Duration(b.N)
			if perOp > 0 {
				b.ReportMetric(simulated/perOp.Seconds(), "sim_s/wall_s")
			}
		})
	}
}

// BenchmarkPaperScenarioSimulation measures raw simulation throughput of
// the full Fig. 4 piconet: simulated seconds per wall second, kernel
// events per wall second, and heap allocations per kernel event (the
// allocation-free-kernel trajectory metric; steady state is pooled, so
// the residual is per-run setup).
func BenchmarkPaperScenarioSimulation(b *testing.B) {
	b.ReportAllocs()
	simulated := 10 * time.Second
	var events uint64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < b.N; i++ {
		spec := scenario.Paper(38 * time.Millisecond)
		spec.Duration = simulated
		res, err := scenario.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalKbps(piconet.Guaranteed) < 200 {
			b.Fatal("implausible result")
		}
		events += res.Events
	}
	runtime.ReadMemStats(&ms1)
	perOp := b.Elapsed() / time.Duration(b.N)
	if perOp > 0 {
		b.ReportMetric(simulated.Seconds()/perOp.Seconds(), "sim_s/wall_s")
	}
	if sec := b.Elapsed().Seconds(); sec > 0 && events > 0 {
		b.ReportMetric(float64(events)/sec, "events/s")
		b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(events), "allocs/event")
	}
}

// BenchmarkScatternet runs N unbridged interference-coupled piconets
// (batched traffic generation on), each its own shard group, at 1, 2 and
// GOMAXPROCS kernel workers. Results are byte-identical at every worker
// count, so rows differ only in wall clock: sim_s/wall_s against the
// piconet count is the scaling, against the worker count the
// shard-parallel speedup (on one core, the cost of multiplexing shards
// over the epoch barrier). Worker counts above the piconet count run the
// same as workers = piconets and are skipped.
func BenchmarkScatternet(b *testing.B) {
	simulated := 5 * time.Second
	counts := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		counts = append(counts, n)
	}
	for _, piconets := range []int{1, 2, 4, 8} {
		for _, workers := range counts {
			if workers > piconets {
				continue
			}
			piconets, workers := piconets, workers
			b.Run(fmt.Sprintf("%dpn/workers=%d", piconets, workers), func(b *testing.B) {
				b.ReportAllocs()
				var events uint64
				for i := 0; i < b.N; i++ {
					spec := scenario.Scatternet(scenario.ScatternetConfig{Piconets: piconets})
					spec.Duration = simulated
					spec.BatchTraffic = true
					spec.KernelWorkers = workers
					res, err := scenario.Run(spec)
					if err != nil {
						b.Fatal(err)
					}
					if res.TotalKbps(piconet.Guaranteed) < 100*float64(piconets) {
						b.Fatal("implausible result")
					}
					events += res.Events
				}
				perOp := b.Elapsed() / time.Duration(b.N)
				if perOp > 0 {
					b.ReportMetric(simulated.Seconds()/perOp.Seconds(), "sim_s/wall_s")
				}
				if sec := b.Elapsed().Seconds(); sec > 0 && events > 0 {
					b.ReportMetric(float64(events)/sec, "events/s")
				}
			})
		}
	}
}

// BenchmarkScatternetStudy regenerates the E9 erosion table.
func BenchmarkScatternetStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, tbl, err := experiments.ScatternetStudy(benchCfg, []int{1, 2, 4}, []float64{60})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("unexpected row count")
		}
		printTable("scatternet", tbl)
	}
}
