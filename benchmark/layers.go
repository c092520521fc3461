package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"bluegs/internal/admission"
	"bluegs/internal/baseband"
	"bluegs/internal/experiments"
	"bluegs/internal/harness"
	"bluegs/internal/radio"
	"bluegs/internal/scenario"
	"bluegs/internal/sim"
	"bluegs/internal/sim/benchwork"
	"bluegs/internal/stats"
)

// layer declares one per-layer metric with the end-to-end metric it should
// move and the workload it should move it on. README.md prints the map;
// TestBenchmarkJSONMatchesCode checks both names exist.
type layer struct {
	metric
	moves    string
	workload string
}

func newLayer(name, unit, better, moves, workload string) layer {
	return layer{metric{Name: name, Unit: unit, Better: better}, moves, workload}
}

// experimentNames are the catalogue experiments that run sweeps, in
// cmd/report order; each gets an experiments.<name>_s span metric.
var experimentNames = []string{"fig5", "t2", "t3", "t4", "a1", "a2", "e5", "e6", "e7", "e8", "e8b", "e9", "e10", "e11", "e12"}

// perLayer are the metrics a -trace 1 invocation reports. The first four
// come from the workload's own traced iterations; the rest from probes
// that call each package's exported functions directly and are the same
// for every workload.
var perLayer = append([]layer{
	newLayer("trace.overhead_ratio", "ratio", "lower", "wall_s", "catalogue"),
	newLayer("trace.spans", "count", "lower", "wall_s", "catalogue"),
	newLayer("harness.runs_per_iter", "count", "lower", "wall_s", "catalogue"),
	newLayer("harness.execute_frac", "ratio", "higher", "wall_s", "catalogue"),
	newLayer("sim.events_per_iter", "count", "lower", "cpu_s", "catalogue"),

	newLayer("sim.host_ns_per_event", "ns", "lower", "wall_s", "catalogue"),
	newLayer("sim.slot_churn_ns", "ns", "lower", "wall_s", "catalogue"),
	newLayer("sim.offgrid_churn_ns", "ns", "lower", "wall_s", "catalogue"),
	newLayer("sim.schedule_cancel_ns", "ns", "lower", "wall_s", "catalogue"),
	newLayer("sim.deep_heap_ns", "ns", "lower", "wall_s", "scatternet_8pn"),
	newLayer("sim.same_slot_batch_ns", "ns", "lower", "wall_s", "catalogue"),
	newLayer("sim.epoch_barrier_us_w1", "us", "lower", "wall_s", "scatternet_8pn"),
	newLayer("sim.epoch_barrier_us_wmax", "us", "lower", "wall_s", "scatternet_8pn"),
	newLayer("sim.shard_speedup", "ratio", "higher", "wall_s", "scatternet_8pn"),

	newLayer("radio.deliver_ns_8pn", "ns", "lower", "wall_s", "scatternet_8pn"),
	newLayer("radio.clear_factor_ns_8pn", "ns", "lower", "wall_s", "scatternet_8pn"),

	newLayer("piconet.host_ns_per_exchange", "ns", "lower", "wall_s", "catalogue"),
	newLayer("piconet.data_slot_frac", "ratio", "higher", "wall_s", "catalogue"),
	newLayer("core.gs_polls", "count", "lower", "cpu_s", "catalogue"),
	newLayer("core.skipped_polls", "count", "higher", "cpu_s", "catalogue"),
	newLayer("core.gs_overhead_frac", "ratio", "lower", "cpu_s", "catalogue"),
	newLayer("poller.be_polls", "count", "lower", "cpu_s", "catalogue"),

	newLayer("admission.plan_us", "us", "lower", "wall_s", "catalogue"),
	newLayer("admission.admit_us", "us", "lower", "wall_s", "catalogue"),
	newLayer("admission.rederate_us", "us", "lower", "wall_s", "catalogue"),
	newLayer("admission.decisions", "count", "lower", "wall_s", "catalogue"),
	newLayer("admission.accept_ratio", "ratio", "higher", "wall_s", "catalogue"),

	newLayer("scenario.setup_ms_paper", "ms", "lower", "wall_s", "fabric_1w"),
	newLayer("scenario.setup_ms_8pn", "ms", "lower", "wall_s", "scatternet_8pn"),
	newLayer("scenario.fingerprint_us", "us", "lower", "wall_s", "fig5_replay"),
	newLayer("scenario.marshal_us", "us", "lower", "wall_s", "fabric_1w"),
	newLayer("scenario.unmarshal_us", "us", "lower", "wall_s", "fabric_1w"),

	newLayer("harness.worker_util", "ratio", "higher", "wall_s", "catalogue"),
	newLayer("harness.run_p50_ms", "ms", "lower", "wall_s", "catalogue"),
	newLayer("harness.run_p90_ms", "ms", "lower", "wall_s", "catalogue"),
	newLayer("harness.cache_key_us", "us", "lower", "wall_s", "fig5_replay"),
	newLayer("harness.cache_get_entry_us", "us", "lower", "wall_s", "fig5_replay"),
	newLayer("harness.cache_decode_us", "us", "lower", "wall_s", "fig5_replay"),
	newLayer("harness.cache_hit_ratio", "ratio", "higher", "wall_s", "fig5_replay"),
	newLayer("harness.cache_entry_kb", "KiB", "lower", "wall_s", "fig5_replay"),
	newLayer("harness.cache_encode_us", "us", "lower", "setup_s", "fig5_replay"),
	newLayer("harness.cache_put_entry_us", "us", "lower", "setup_s", "fig5_replay"),

	newLayer("fabric.leases", "count", "lower", "wall_s", "fabric_1w"),
	newLayer("fabric.runs_per_lease", "count", "higher", "wall_s", "fabric_1w"),
	newLayer("fabric.expired", "count", "lower", "wall_s", "fabric_1w"),
	newLayer("fabric.tax", "ratio", "lower", "wall_s", "fabric_1w"),
	newLayer("fabric.one_run_ms", "ms", "lower", "wall_s", "fabric_1w"),

	newLayer("experiments.self_frac", "ratio", "lower", "wall_s", "catalogue"),
}, experimentLayers()...)

func experimentLayers() []layer {
	var out []layer
	for _, name := range experimentNames {
		out = append(out, newLayer("experiments."+name+"_s", "s", "lower", "wall_s", "catalogue"))
	}
	return out
}

// prober collects probe samples and checks.
type prober struct {
	e      env
	tr     *tracer
	parent int
	out    map[string][]float64
	checks []verdict
}

// probeLayers runs every layer probe, each inside a probe.<layer> span, and
// returns the samples of every probed per-layer metric with the probes' own
// output checks.
func probeLayers(e env, tr *tracer) (map[string][]float64, []verdict, error) {
	p := &prober{e: e, tr: tr, out: map[string][]float64{}}
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"sim", p.kernel},
		{"sim.shards", p.shards},
		{"radio", p.radio},
		{"piconet", p.paper},
		{"admission", p.admission},
		{"scenario", p.scenario},
		{"harness.cache", p.cache},
		{"fabric", p.fabric},
		{"experiments", p.catalogue},
	} {
		p.parent = tr.begin("probe."+step.name, 0)
		err := step.run()
		tr.end(p.parent)
		if err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", step.name, err)
		}
	}
	return p.out, p.checks, nil
}

func (p *prober) set(name string, v ...float64) { p.out[name] = append(p.out[name], v...) }

// perCall times probeReps rounds of n calls of f and records each round's
// mean cost per call, multiplied by scale (1e9 for ns, 1e6 for µs, ...).
func (p *prober) perCall(name string, scale float64, n int, f func(i int) error) error {
	n = max(1, n)
	for r := 0; r < p.e.size.probeReps; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := f(r*n + i); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		p.set(name, time.Since(start).Seconds()/float64(n)*scale)
	}
	return nil
}

// kernel times the shared benchwork kernel workloads at a fixed event count
// and the ShardSet epoch barrier over eight idle shards.
func (p *prober) kernel() error {
	testing.Init()
	if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", 100*p.e.size.probeOps)); err != nil {
		return err
	}
	for _, k := range []struct {
		name string
		f    func(*testing.B)
	}{
		{"sim.slot_churn_ns", benchwork.Churn(sim.SlotGrain)},
		{"sim.offgrid_churn_ns", benchwork.Churn(benchwork.OffGridInterval)},
		{"sim.schedule_cancel_ns", benchwork.ScheduleCancel},
		{"sim.deep_heap_ns", benchwork.DeepHeap},
		{"sim.same_slot_batch_ns", benchwork.SameSlotBatch},
	} {
		for r := 0; r < p.e.size.probeReps; r++ {
			res := testing.Benchmark(k.f)
			if res.N == 0 {
				return fmt.Errorf("%s: benchmark failed", k.name)
			}
			p.set(k.name, float64(res.T.Nanoseconds())/float64(res.N))
		}
	}
	const epoch = 25 * time.Millisecond // the sharded runner's interference epoch
	epochs := p.e.size.probeOps
	for _, b := range []struct {
		name    string
		workers int
	}{{"sim.epoch_barrier_us_w1", 1}, {"sim.epoch_barrier_us_wmax", runtime.GOMAXPROCS(0)}} {
		for r := 0; r < p.e.size.probeReps; r++ {
			shards := make([]*sim.Simulator, 8)
			for i := range shards {
				shards[i] = sim.New()
			}
			ss := sim.NewShardSet(shards...)
			start := time.Now()
			errs := ss.RunEpochs(time.Duration(epochs)*epoch, epoch, b.workers, nil)
			d := time.Since(start)
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			p.set(b.name, d.Seconds()*1e6/float64(epochs))
		}
	}
	return nil
}

// shards prices the sharded kernel's parallelism: an 8-piconet scatternet
// run at KernelWorkers=1 over the same run at the default worker count.
func (p *prober) shards() error {
	spec := scenario.Scatternet(scenario.ScatternetConfig{Piconets: 8, Duration: p.e.size.probeHorizon})
	spec.BatchTraffic = true
	spec.Seed = p.e.seed
	walls := map[int][]float64{}
	var texts []string
	for r := 0; r < p.e.size.probeReps; r++ {
		order := []int{1, 0}
		if r%2 == 1 {
			order = []int{0, 1}
		}
		for _, kw := range order {
			s := spec
			s.KernelWorkers = kw
			start := time.Now()
			res, err := scenario.Run(s)
			if err != nil {
				return err
			}
			walls[kw] = append(walls[kw], time.Since(start).Seconds())
			if r == 0 {
				texts = append(texts, render([]harness.RunResult{{Run: harness.Run{Spec: s}, Result: res}}))
			}
		}
	}
	p.checks = append(p.checks, check("8pn probe identical at 1 and default kernel workers",
		texts[0] == texts[1], "renderings differ"))
	p.set("sim.shard_speedup", median(walls[1])/median(walls[0]))
	return nil
}

// radio times the collision draw and the clear-factor snapshot on a medium
// with eight attached piconets taking turns on air.
func (p *prober) radio() error {
	var now time.Duration
	m := radio.NewMedium(0, 0, func() time.Duration { return now })
	hops := make([]*radio.HopInterference, 8)
	for i := range hops {
		hops[i] = m.Attach(nil)
	}
	rng := rand.New(rand.NewSource(p.e.seed))
	n := 50 * p.e.size.probeOps
	if err := p.perCall("radio.deliver_ns_8pn", 1e9, n, func(i int) error {
		now += sim.SlotGrain / 8
		hops[i%8].Deliver(rng, baseband.TypeDH1)
		return nil
	}); err != nil {
		return err
	}
	sink := 0.0
	err := p.perCall("radio.clear_factor_ns_8pn", 1e9, n, func(i int) error {
		now += sim.SlotGrain / 8
		sink += m.ClearFactor(now)
		return nil
	})
	if !(sink > 0) {
		return fmt.Errorf("clear factor sum %v", sink)
	}
	return err
}

// paper runs the Fig. 4 piconet and reads the engine, scheduler and poller
// counters off its result: counts are simulated statistics and must not
// move under a pure-speed change.
func (p *prober) paper() error {
	spec := scenario.Paper(40 * time.Millisecond)
	spec.Seed = p.e.seed
	spec.Duration = p.e.size.probeHorizon
	var res *scenario.Result
	for r := 0; r < p.e.size.probeReps; r++ {
		start := time.Now()
		var err error
		if res, err = scenario.Run(spec); err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		p.set("sim.host_ns_per_event", wall*1e9/float64(res.Events))
		p.set("piconet.host_ns_per_exchange", wall*1e9/float64(res.GSPolls+res.BEPolls))
	}
	sl := res.Slots
	p.set("piconet.data_slot_frac", float64(sl.GSData+sl.BEData)/float64(sl.Total-sl.Idle))
	p.set("core.gs_polls", float64(res.GSPolls))
	p.set("core.skipped_polls", float64(res.Skipped))
	p.set("core.gs_overhead_frac", float64(sl.GSOverhead)/float64(sl.GSData+sl.GSOverhead))
	p.set("poller.be_polls", float64(res.BEPolls))
	v := len(res.BoundViolations())
	p.checks = append(p.checks, check("paper-fig4 probe within bounds", v == 0, "%d violations", v))
	return nil
}

// fig4Requests is the paper's Fig. 4 GS flow set as admission requests.
func fig4Requests(target time.Duration) []admission.DelayRequest {
	spec := scenario.Paper(target)
	var reqs []admission.DelayRequest
	for _, g := range spec.GS {
		reqs = append(reqs, admission.DelayRequest{
			Request: admission.Request{ID: g.ID, Slave: g.Slave, Dir: g.Dir, Spec: g.Spec(), Allowed: spec.Allowed},
			Target:  target,
		})
	}
	return reqs
}

// admission times offline planning of the Fig. 4 set at a 40 ms target,
// one online admission on top of four accepted flows, and the re-derate a
// scatternet applies when two of four co-located piconets leave and return.
func (p *prober) admission() error {
	cfg := admission.Config{MaxExchange: baseband.SlotsToDuration(6)}
	fig4 := fig4Requests(40 * time.Millisecond)
	n := p.e.size.probeOps / 20
	if err := p.perCall("admission.plan_us", 1e6, n, func(int) error {
		_, err := admission.PlanForDelay(fig4, cfg)
		return err
	}); err != nil {
		return err
	}
	// At a 100 ms target every rate stays at its token rate, which leaves
	// the poll schedule room for a fifth flow.
	loose := fig4Requests(100 * time.Millisecond)
	fifth := loose[0]
	fifth.Request.ID, fifth.Request.Slave = 5, 4
	for r := 0; r < p.e.size.probeReps; r++ {
		var spent time.Duration
		for i := 0; i < max(1, n); i++ {
			ctrl, err := admission.PlanForDelay(loose, cfg)
			if err != nil {
				return err
			}
			start := time.Now()
			_, err = ctrl.AdmitForDelay(fifth)
			spent += time.Since(start)
			if err != nil {
				return fmt.Errorf("admit a fifth flow: %w", err)
			}
		}
		p.set("admission.admit_us", spent.Seconds()*1e6/float64(max(1, n)))
	}
	// The piggybacked pair at slave 2, admitted for four co-located
	// piconets, keeps its contracts at any estimate between four and two.
	s4 := 1 - radio.ExpectedCollisionProb(3, radio.DefaultFHChannels)
	s2 := 1 - radio.ExpectedCollisionProb(1, radio.DefaultFHChannels)
	derated := cfg
	derated.SuccessProb = s4
	ctrl, err := admission.PlanForDelay(fig4[1:3], derated)
	if err != nil {
		return err
	}
	probs := []float64{s2, s4}
	return p.perCall("admission.rederate_us", 1e6, n, func(i int) error {
		return ctrl.SetSuccessProb(probs[i%2])
	})
}

// scenario times the runner's set-up (a one-slot horizon: spec to result
// with no simulated time) and the spec codec and fingerprint.
func (p *prober) scenario() error {
	paper := scenario.Paper(40 * time.Millisecond)
	paper.Seed = p.e.seed
	ops := p.e.size.probeOps
	oneSlot := paper
	oneSlot.Duration = sim.SlotGrain
	if err := p.perCall("scenario.setup_ms_paper", 1e3, ops/40, func(int) error {
		_, err := scenario.Run(oneSlot)
		return err
	}); err != nil {
		return err
	}
	pn8 := scenario.Scatternet(scenario.ScatternetConfig{Piconets: 8, Duration: sim.SlotGrain})
	pn8.BatchTraffic = true
	pn8.Seed = p.e.seed
	if err := p.perCall("scenario.setup_ms_8pn", 1e3, ops/200, func(int) error {
		_, err := scenario.Run(pn8)
		return err
	}); err != nil {
		return err
	}
	if err := p.perCall("scenario.fingerprint_us", 1e6, ops/4, func(int) error {
		if paper.Fingerprint() == "" {
			return fmt.Errorf("empty fingerprint")
		}
		return nil
	}); err != nil {
		return err
	}
	data, err := scenario.Marshal(paper)
	if err != nil {
		return err
	}
	if err := p.perCall("scenario.marshal_us", 1e6, ops/4, func(int) error {
		_, err := scenario.Marshal(paper)
		return err
	}); err != nil {
		return err
	}
	return p.perCall("scenario.unmarshal_us", 1e6, ops/4, func(int) error {
		_, err := scenario.Unmarshal(data)
		return err
	})
}

// cache times each step a run-cache replay and fill take, on the entry of
// one Fig. 5 run at the replay workload's horizon.
func (p *prober) cache() error {
	run := harness.Fig5Sweep(harness.SweepConfig{Duration: p.e.size.replayHorizon, Seed: p.e.seed},
		[]time.Duration{38 * time.Millisecond}).Runs[0]
	res, err := scenario.Run(run.Spec)
	if err != nil {
		return err
	}
	ops := p.e.size.probeOps
	key := harness.CacheKey(harness.DefaultCacheSalt, run.Spec)
	if err := p.perCall("harness.cache_key_us", 1e6, ops, func(int) error {
		harness.CacheKey(harness.DefaultCacheSalt, run.Spec)
		return nil
	}); err != nil {
		return err
	}
	entry, err := harness.EncodeResultEntry(key, res)
	if err != nil {
		return err
	}
	p.set("harness.cache_entry_kb", float64(len(entry))/1024)
	if err := p.perCall("harness.cache_encode_us", 1e6, ops/200, func(int) error {
		_, err := harness.EncodeResultEntry(key, res)
		return err
	}); err != nil {
		return err
	}
	if err := p.perCall("harness.cache_decode_us", 1e6, ops/200, func(int) error {
		_, err := harness.DecodeResultEntry(key, entry, run.Spec)
		return err
	}); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(p.e.dir, "cache-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := harness.NewRunCache(harness.CacheConfig{Dir: dir})
	if err != nil {
		return err
	}
	// Entries are stored under distinct synthetic keys: PutEntry verifies
	// the footer, not the key, and a repeated key would be a no-op.
	fake := func(i int) string { return fmt.Sprintf("%064x", i) }
	n := ops / 100
	if err := p.perCall("harness.cache_put_entry_us", 1e6, n, func(i int) error {
		return cache.PutEntry(fake(i), entry)
	}); err != nil {
		return err
	}
	if err := p.perCall("harness.cache_get_entry_us", 1e6, n, func(i int) error {
		_, err := cache.GetEntry(fake(i))
		return err
	}); err != nil {
		return err
	}
	if err := cache.Put(run.Spec, res); err != nil {
		return err
	}
	fresh, err := harness.NewRunCache(harness.CacheConfig{Dir: dir})
	if err != nil {
		return err
	}
	if _, err := harness.Execute([]harness.Run{run}, harness.Options{Workers: 1, Cache: fresh}); err != nil {
		return err
	}
	st := fresh.Stats()
	p.set("harness.cache_hit_ratio", float64(st.Hits)/float64(max(1, st.Hits+st.Misses)))
	return nil
}

// fabric prices distribution: the same small grid in-process and through
// the fabric with poolWorkers workers, and a one-run sweep's round trip.
func (p *prober) fabric() error {
	runs := harness.Fig5Sweep(harness.SweepConfig{Duration: p.e.size.fabricHorizon, Seed: p.e.seed,
		Replications: p.e.size.probeFabricReps}, experiments.DefaultFig5Targets()).Runs
	for r := 0; r < p.e.size.probeReps; r++ {
		start := time.Now()
		local, err := harness.Execute(runs, harness.Options{Workers: p.e.workers})
		if err != nil {
			return err
		}
		inProcess := time.Since(start).Seconds()
		start = time.Now()
		remote, st, err := fabricSweep(newExecutor(nil), runs, poolWorkers, true)
		if err != nil {
			return err
		}
		p.set("fabric.tax", time.Since(start).Seconds()/inProcess)
		if r == 0 {
			p.checks = append(p.checks, check("fabric probe equals in-process",
				render(remote) == render(local), "renderings differ"))
			p.set("fabric.leases", float64(st.Leases))
			p.set("fabric.runs_per_lease", float64(st.FromWorkers)/float64(max(1, st.Leases)))
			p.set("fabric.expired", float64(st.Expired))
		}
	}
	for r := 0; r < p.e.size.probeReps; r++ {
		start := time.Now()
		if _, _, err := fabricSweep(newExecutor(nil), runs[:1], 1, false); err != nil {
			return err
		}
		p.set("fabric.one_run_ms", time.Since(start).Seconds()*1e3)
	}
	return nil
}

// catalogue runs one traced catalogue iteration and reads the experiment,
// harness and admission metrics off its spans and results.
func (p *prober) catalogue() error {
	first := p.tr.mark()
	x := newExecutor(p.tr)
	x.parent = p.parent
	if _, err := runCatalogue(catalogueConfig(p.e), x); err != nil {
		return err
	}
	spans := p.tr.since(first)
	var total, self, busy, sweeps float64
	for _, exp := range children(spans, p.parent) {
		var runSpans []span
		for _, sw := range children(spans, exp.ID) {
			sweeps += sw.seconds()
			runSpans = append(runSpans, children(spans, sw.ID)...)
		}
		total += exp.seconds()
		self += exp.seconds() - covered(runSpans)
		for _, name := range experimentNames {
			if exp.Name == "experiments."+name {
				p.set("experiments."+name+"_s", exp.seconds())
			}
		}
	}
	p.set("experiments.self_frac", self/total)
	var walls stats.Sample
	for _, r := range named(spans, "harness.run") {
		busy += r.seconds()
		walls.Add(r.seconds() * 1e3)
	}
	p.set("harness.worker_util", busy/(float64(p.e.workers)*sweeps))
	p.set("harness.run_p50_ms", walls.Quantile(0.5))
	p.set("harness.run_p90_ms", walls.Quantile(0.9))
	var decisions, accepted int
	for _, r := range x.results {
		if r.Result == nil {
			continue
		}
		for _, a := range r.Result.Admissions {
			decisions++
			if a.Accepted {
				accepted++
			}
		}
	}
	p.set("admission.decisions", float64(decisions))
	p.set("admission.accept_ratio", float64(accepted)/float64(max(1, decisions)))
	return nil
}
