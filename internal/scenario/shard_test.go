package scenario

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"bluegs/internal/faults"
	"bluegs/internal/piconet"
)

// TestKernelShardsPartition pins the shard-partition rule: unbridged
// piconets shard apart, bridge/route/move connectivity merges groups,
// and scatternet-global machinery collapses to a single group.
func TestKernelShardsPartition(t *testing.T) {
	scatter := func(n int) Spec {
		return Scatternet(ScatternetConfig{Piconets: n, Duration: time.Second})
	}
	cases := []struct {
		name string
		spec Spec
		want [][]string
	}{
		{
			name: "unbridged piconets shard apart",
			spec: scatter(4),
			want: [][]string{{"pn1"}, {"pn2"}, {"pn3"}, {"pn4"}},
		},
		{
			name: "single piconet is single group",
			spec: scatter(1),
			want: [][]string{{"pn1"}},
		},
		{
			name: "bridge residency merges its piconets",
			spec: func() Spec {
				s := scatter(3)
				s.Bridges = []BridgeSpec{{
					Name:   "b1",
					Period: 100 * time.Millisecond,
					Residency: []ResidencySpec{
						{Piconet: "pn1", Slave: 7, Start: 0, End: 50 * time.Millisecond},
						{Piconet: "pn3", Slave: 7, Start: 50 * time.Millisecond, End: 100 * time.Millisecond},
					},
				}}
				return s
			}(),
			want: [][]string{{"pn1", "pn3"}, {"pn2"}},
		},
		{
			name: "move with a named target merges source and destination",
			spec: func() Spec {
				s := scatter(3)
				s.Timeline = append(s.Timeline,
					MoveFlowAt(time.Second, 1, "pn3").For("pn1"))
				return s
			}(),
			want: [][]string{{"pn1", "pn3"}, {"pn2"}},
		},
		{
			name: "move with an open target forces a single group",
			spec: func() Spec {
				s := scatter(3)
				s.Timeline = append(s.Timeline,
					MoveFlowAt(time.Second, 1, "").For("pn1"))
				return s
			}(),
			want: [][]string{{"pn1", "pn2", "pn3"}},
		},
		{
			name: "handoff recovery forces a single group",
			spec: func() Spec {
				s := scatter(3)
				s.Recovery.Policy = faults.PolicyHandoff
				return s
			}(),
			want: [][]string{{"pn1", "pn2", "pn3"}},
		},
		{
			name: "a master crash forces a single group",
			spec: func() Spec {
				s := scatter(3)
				s.Faults.Crashes = []faults.MasterCrash{{Piconet: "pn2", At: time.Second}}
				return s
			}(),
			want: [][]string{{"pn1", "pn2", "pn3"}},
		},
		{
			name: "piconet churn forces a single group",
			spec: func() Spec {
				s := scatter(3)
				s.Timeline = append(s.Timeline, RemovePiconetAt(time.Second, "pn2"))
				return s
			}(),
			want: [][]string{{"pn1", "pn2", "pn3"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := kernelShards(tc.spec.WithDefaults())
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("kernelShards = %v, want %v", got, tc.want)
			}
		})
	}
}

// countingTracer counts the exchanges a traced run reports.
type countingTracer struct{ n int }

func (c *countingTracer) Trace(piconet.TraceEntry) { c.n++ }

// TestTracerDoesNotChangeResults: observing a run must not change it. A
// tracer on a sharded interference scatternet sees the first piconet's
// exchanges, and the traced run renders exactly the untraced report and
// admission log.
func TestTracerDoesNotChangeResults(t *testing.T) {
	spec := Scatternet(ScatternetConfig{Piconets: 3, OnlineGS: 1, Duration: 2 * time.Second})
	render := func(res *Result) string {
		out := res.Report().String()
		if adm := res.AdmissionReport(); adm != nil {
			out += adm.String()
		}
		return out
	}
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTracer{}
	traced, err := RunWith(spec, Hooks{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.n == 0 {
		t.Fatal("the tracer saw no exchange")
	}
	if got, want := render(traced), render(plain); got != want {
		t.Fatalf("tracing changed the run:\n--- traced\n%s\n--- untraced\n%s", got, want)
	}
}

// TestKernelShardsRouteMergesHops: a route's hop piconets must co-shard
// (the store-and-forward handoff has zero lookahead).
func TestKernelShardsRouteMergesHops(t *testing.T) {
	spec := Bridged(BridgedConfig{Hops: 2, Duration: time.Second})
	spec.Piconets = append(spec.Piconets, PiconetSpec{
		Name: "pn-loose",
		GS: []GSFlow{{
			ID: 1, Slave: 1, Dir: piconet.Up,
			Interval: 20 * time.Millisecond, MinSize: 144, MaxSize: 176,
		}},
	})
	groups := kernelShards(spec.WithDefaults())
	want := [][]string{{"pn1", "pn2"}, {"pn-loose"}}
	if !reflect.DeepEqual(groups, want) {
		t.Fatalf("kernelShards = %v, want %v", groups, want)
	}
}

// TestShardSeedDistinct: every shard draws from its own stream, shard 0
// keeps the run seed, and the mix differs from the replication-seed mix
// (shard g of replication 0 must not equal shard 0 of replication g).
func TestShardSeedDistinct(t *testing.T) {
	const base = 12345
	if got := shardSeed(base, 0); got != base {
		t.Fatalf("shardSeed(base, 0) = %d, want the run seed %d", got, base)
	}
	seen := map[int64]int{base: 0}
	for g := 1; g < 64; g++ {
		s := shardSeed(base, g)
		if s == 0 {
			t.Fatalf("shard %d: zero seed", g)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("shard %d collides with shard %d: seed %d", g, prev, s)
		}
		seen[s] = g
	}
}

// shardedProbe is the worker-count determinism workload: several
// unbridged piconets coupled through interference, online GS arrivals
// exercising the admission log, and a mid-run flow removal.
func shardedProbe(workers int) (*Result, error) {
	spec := Scatternet(ScatternetConfig{
		Piconets: 4,
		OnlineGS: 1,
		Duration: 3 * time.Second,
	})
	spec.Timeline = append(spec.Timeline,
		RemoveAt(2*time.Second, 1).For("pn2"))
	spec.KernelWorkers = workers
	return Run(spec)
}

// TestShardedByteIdenticalAcrossWorkers is the tentpole's acceptance
// spec at scenario level: merged metrics, report tables and the
// chronological admission log must be byte-identical at any worker
// count, and Result.Spec must never leak the worker count.
func TestShardedByteIdenticalAcrossWorkers(t *testing.T) {
	ref, err := shardedProbe(1)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	if len(ref.Piconets) != 4 {
		t.Fatalf("probe ran %d piconets, want 4", len(ref.Piconets))
	}
	if len(ref.Admissions) == 0 {
		t.Fatal("probe produced no admission records")
	}
	refReport := ref.Report().String()
	for _, workers := range []int{2, runtime.GOMAXPROCS(0), 8, 0} {
		got, err := shardedProbe(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Spec.KernelWorkers != 0 {
			t.Fatalf("workers=%d: Result.Spec.KernelWorkers = %d, want 0",
				workers, got.Spec.KernelWorkers)
		}
		if got.Events != ref.Events {
			t.Fatalf("workers=%d: %d kernel events, want %d", workers, got.Events, ref.Events)
		}
		if r := got.Report().String(); r != refReport {
			t.Fatalf("workers=%d: report diverged from workers=1:\n%s\n--- want ---\n%s",
				workers, r, refReport)
		}
		if !reflect.DeepEqual(got.Admissions, ref.Admissions) {
			t.Fatalf("workers=%d: admission log diverged:\n%+v\nwant:\n%+v",
				workers, got.Admissions, ref.Admissions)
		}
		if !reflect.DeepEqual(got.Routes, ref.Routes) {
			t.Fatalf("workers=%d: route table diverged", workers)
		}
	}
}

// TestShardedRoutedScatternetAcrossWorkers: a spec mixing a routed
// (single-shard) pair with independent piconets still merges
// deterministically at any worker count — including the route table.
func TestShardedRoutedScatternetAcrossWorkers(t *testing.T) {
	build := func(workers int) (*Result, error) {
		spec := Bridged(BridgedConfig{Hops: 2, Duration: 2 * time.Second})
		extra := Scatternet(ScatternetConfig{Piconets: 2, Duration: spec.Duration})
		for i := range extra.Piconets {
			ps := extra.Piconets[i]
			ps.Name = "x" + ps.Name
			spec.Piconets = append(spec.Piconets, ps)
		}
		spec.Interference = InterferenceSpec{Enabled: true}
		spec.KernelWorkers = workers
		return Run(spec)
	}
	ref, err := build(1)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	if len(ref.Routes) == 0 {
		t.Fatal("probe produced no route results")
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		got, err := build(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Report().String() != ref.Report().String() {
			t.Fatalf("workers=%d: report diverged from workers=1", workers)
		}
		if !reflect.DeepEqual(got.Routes, ref.Routes) {
			t.Fatalf("workers=%d: route table diverged", workers)
		}
	}
}

// TestShardedFingerprintIgnoresWorkers: KernelWorkers must never enter
// the canonical rendering — the fingerprint (and so every cache key) is
// identical at any worker count.
func TestShardedFingerprintIgnoresWorkers(t *testing.T) {
	spec := Scatternet(ScatternetConfig{Piconets: 3, Duration: time.Second})
	ref := spec.Fingerprint()
	for _, workers := range []int{1, 2, 16} {
		s := spec
		s.KernelWorkers = workers
		if got := s.Fingerprint(); got != ref {
			t.Fatalf("KernelWorkers=%d changed the fingerprint: %s vs %s", workers, got, ref)
		}
	}
}

// TestShardedRaceHammer drives the sharded runner hot with the maximum
// worker multiplexing — the -race acceptance test for the scenario-level
// epoch exchange (medium snapshot swap) and merge paths.
func TestShardedRaceHammer(t *testing.T) {
	spec := Scatternet(ScatternetConfig{
		Piconets: 6,
		OnlineGS: 1,
		Duration: 1500 * time.Millisecond,
	})
	spec.KernelWorkers = runtime.GOMAXPROCS(0) + 2
	ref, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Report().String() != ref.Report().String() {
			t.Fatalf("iteration %d: report diverged", i)
		}
	}
}

// TestResultOrder pins the order of Result.Piconets and Result.Routes. A
// one-group run lists mid-run routes in creation order (the order the
// timeline fired them); a multi-group run lists them in declaration
// order; add_piconet arrivals follow the declared piconets in creation
// order.
func TestResultOrder(t *testing.T) {
	route := func(id piconet.FlowID, source, bridge string) RouteSpec {
		return RouteSpec{
			ID: id, Source: source, Bridges: []string{bridge},
			Interval: 100 * time.Millisecond, MinSize: 144, MaxSize: 176,
			DelayTarget: time.Second,
		}
	}
	routeIDs := func(res *Result) []piconet.FlowID {
		var ids []piconet.FlowID
		for _, rr := range res.Routes {
			ids = append(ids, rr.ID)
		}
		return ids
	}

	t.Run("one group lists routes in creation order", func(t *testing.T) {
		spec := Bridged(BridgedConfig{Hops: 3, Duration: 4 * time.Second})
		spec.Routes = nil
		spec.Timeline = []TimelineEvent{
			AddRouteAt(3*time.Second, route(40, "pn1", "b1")),
			AddRouteAt(1*time.Second, route(41, "pn2", "b2")),
		}
		if groups := kernelShards(spec.WithDefaults()); len(groups) != 1 {
			t.Fatalf("kernelShards = %v, want one group", groups)
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := routeIDs(res), []piconet.FlowID{41, 40}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Routes = %v, want %v", got, want)
		}
	})

	t.Run("multi-group lists routes in declaration order", func(t *testing.T) {
		spec := Bridged(BridgedConfig{Hops: 2, Duration: 4 * time.Second})
		spec.Routes = nil
		rename := map[string]string{"pn1": "qn1", "pn2": "qn2"}
		for _, ps := range spec.Piconets[:2] {
			ps.Name = rename[ps.Name]
			spec.Piconets = append(spec.Piconets, ps)
		}
		twin := spec.Bridges[0]
		twin.Name = "c1"
		twin.Residency = append([]ResidencySpec(nil), twin.Residency...)
		for i := range twin.Residency {
			twin.Residency[i].Piconet = rename[twin.Residency[i].Piconet]
		}
		spec.Bridges = append(spec.Bridges, twin)
		spec.Timeline = []TimelineEvent{
			AddRouteAt(3*time.Second, route(40, "qn1", "c1")),
			AddRouteAt(1*time.Second, route(41, "pn1", "b1")),
		}
		if groups := kernelShards(spec.WithDefaults()); len(groups) != 2 {
			t.Fatalf("kernelShards = %v, want two groups", groups)
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := routeIDs(res), []piconet.FlowID{40, 41}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Routes = %v, want %v", got, want)
		}
	})

	t.Run("add_piconet arrivals follow in creation order", func(t *testing.T) {
		spec := Scatternet(ScatternetConfig{Piconets: 2, Duration: 3 * time.Second})
		be := []BEFlow{{ID: 1, Slave: 1, Dir: piconet.Up, RateKbps: 10, PacketSize: 100}}
		spec.Timeline = append(spec.Timeline,
			AddPiconetAt(2*time.Second, PiconetSpec{Name: "late", BE: be}),
			AddPiconetAt(1*time.Second, PiconetSpec{Name: "early", BE: be}),
		)
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, pr := range res.Piconets {
			names = append(names, pr.Name)
		}
		if want := []string{"pn1", "pn2", "early", "late"}; !reflect.DeepEqual(names, want) {
			t.Fatalf("Piconets = %v, want %v", names, want)
		}
	})
}
