package scenario

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"bluegs/internal/faults"
	"bluegs/internal/piconet"
	"bluegs/internal/radio"
	"bluegs/internal/sim"
)

// interferenceEpoch is the fixed interference-exchange epoch of sharded
// runs: every shard runs its kernel this far, then all shards swap
// radio.Medium activity snapshots at a barrier (see Medium.ClearFactor /
// SetForeignClear). The FH collision probability is the only coupling
// between unbridged piconets, and it moves on utilization-window
// timescales (250 ms by default), so a 25 ms snapshot cadence tracks it
// closely while leaving ~40 decision intervals of useful work per shard
// per epoch. The value is a semantic constant of the sharded coupling
// model — never a function of the worker count — so results are
// byte-identical at any KernelWorkers.
const interferenceEpoch = 25 * time.Millisecond

// shardSeed derives shard g's RNG seed from the run seed. Shard 0 keeps
// the run seed itself; higher shards mix (seed, g) through a
// splitmix64-style finalizer over a different increment than
// harness.ReplicationSeed uses, so shard streams collide neither with
// each other nor with other replications' shard streams.
func shardSeed(base int64, g int) int64 {
	if g == 0 {
		return base
	}
	z := uint64(base) + uint64(g)*0xA0761D6478BD642F
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	seed := int64(z)
	if seed == 0 {
		seed = 1
	}
	return seed
}

// kernelWorkersFor resolves Spec.KernelWorkers (<= 0 means GOMAXPROCS).
func kernelWorkersFor(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// kernelShards partitions the spec's piconets into shard groups: the
// connected components of the "must share a kernel" relation. Bridges,
// routes and flow moves create cross-piconet event flow with zero
// lookahead (a store-and-forward handoff lands in the next hop at the
// very instant it completes), so every piconet they connect runs in one
// shard; piconets coupled only through the FH collision probability can
// run apart, synchronized at interference-exchange epochs. Scatternet-
// global machinery that reaches arbitrary piconets — the handoff
// recovery policy, master crashes (which re-derate every survivor),
// piconet churn, an unresolved move target, and runtime hooks — forces
// a single group. A single group is one shard run as one epoch on the
// run seed, so every flat spec keeps its single-kernel results.
//
// The partition is a pure function of the (defaulted) spec: it never
// depends on KernelWorkers, scheduling, or anything outside the spec,
// which is what keeps sharded runs byte-identical at any worker count.
func kernelShards(spec Spec, hooks Hooks) [][]string {
	ps := spec.piconetSpecs()
	names := make([]string, len(ps))
	idx := make(map[string]int, len(ps))
	for i, p := range ps {
		names[i] = p.Name
		idx[p.Name] = i
	}
	single := [][]string{names}
	if len(ps) < 2 || !hooks.Zero() {
		return single
	}
	if spec.Recovery.Policy == faults.PolicyHandoff || len(spec.Faults.Crashes) > 0 {
		return single
	}

	parent := make([]int, len(ps))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b string) {
		ia, okA := idx[a]
		ib, okB := idx[b]
		if !okA || !okB {
			return
		}
		ra, rb := find(ia), find(ib)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	unionAll := false
	routeEdges := func(rt RouteSpec) {
		hops, err := spec.routeHops(rt)
		if err != nil || len(hops) == 0 {
			// Validation rejects statically broken routes before the
			// partition matters; stay conservative regardless.
			unionAll = true
			return
		}
		for j := 1; j < len(hops); j++ {
			union(hops[0].Piconet, hops[j].Piconet)
		}
	}
	for _, br := range spec.Bridges {
		for j := 1; j < len(br.Residency); j++ {
			union(br.Residency[0].Piconet, br.Residency[j].Piconet)
		}
	}
	for _, rt := range spec.Routes {
		routeEdges(rt)
	}
	for _, ev := range spec.Timeline {
		switch {
		case ev.AddPiconet != nil || ev.RemovePiconet != "":
			// Churn mutates the shared medium membership and re-derates
			// every piconet: single kernel.
			return single
		case ev.AddRoute != nil:
			routeEdges(*ev.AddRoute)
		case ev.Move != nil:
			if ev.Move.To == "" {
				// "First other live piconet" can resolve to any of them.
				unionAll = true
			} else {
				union(ev.Piconet, ev.Move.To)
			}
		}
	}
	if unionAll {
		return single
	}
	order := make([]int, 0, len(ps))
	members := make(map[int][]string, len(ps))
	for i, n := range names {
		r := find(i)
		if _, seen := members[r]; !seen {
			order = append(order, r)
		}
		members[r] = append(members[r], n)
	}
	out := make([][]string, 0, len(order))
	for _, r := range order {
		out = append(out, members[r])
	}
	return out
}

// routeGroup resolves the shard a route lives in: the group of its
// first hop's piconet (the partition guarantees every hop co-shards).
func routeGroup(spec Spec, groupOf map[string]int, rt RouteSpec) int {
	if hops, err := spec.routeHops(rt); err == nil && len(hops) > 0 {
		if g, ok := groupOf[hops[0].Piconet]; ok {
			return g
		}
	}
	if g, ok := groupOf[rt.Source]; ok {
		return g
	}
	return 0
}

// timelineShard resolves the shard that applies a timeline event: route
// events go to the route's shard, piconet-addressed events to the
// target piconet's shard, and events whose target the run can never
// know (an unknown name, an unknown route id) to shard 0, whose
// rejection record is as deterministic as any other outcome.
func timelineShard(spec Spec, groupOf map[string]int, routeShard map[piconet.FlowID]int, ev TimelineEvent) int {
	switch {
	case ev.AddRoute != nil:
		if g, ok := routeShard[ev.AddRoute.ID]; ok {
			return g
		}
		return routeGroup(spec, groupOf, *ev.AddRoute)
	case ev.RemoveRoute != piconet.None:
		if g, ok := routeShard[ev.RemoveRoute]; ok {
			return g
		}
		return 0
	}
	if g, ok := groupOf[ev.Piconet]; ok {
		return g
	}
	return 0
}

// routeOrder lists every route id the run can ever create, in
// declaration order (static routes first, then timeline add_route slice
// order) — the order of a multi-group run's Result.Routes table.
func routeOrder(spec Spec) []piconet.FlowID {
	var order []piconet.FlowID
	seen := make(map[piconet.FlowID]bool)
	add := func(id piconet.FlowID) {
		if !seen[id] {
			seen[id] = true
			order = append(order, id)
		}
	}
	for _, rt := range spec.Routes {
		add(rt.ID)
	}
	for _, ev := range spec.Timeline {
		if ev.AddRoute != nil {
			add(ev.AddRoute.ID)
		}
	}
	return order
}

// runShards executes a scenario: one runner — kernel, medium, piconets,
// routes, admission log — per shard group, driven in lockstep
// interference-exchange epochs by sim.ShardSet. Every input of every
// shard (partition, seeds, epoch boundaries, event assignment) is
// derived from the spec alone; `workers` only multiplexes shard
// execution onto goroutines, so results are byte-identical at any
// worker count. One group runs one epoch over the whole horizon on the
// run seed: a plain Simulator.Run(Duration).
func runShards(spec Spec, piconets []PiconetSpec, groups [][]string, hooks Hooks, workers int) (*Result, error) {
	groupOf := make(map[string]int)
	for g, members := range groups {
		for _, n := range members {
			groupOf[n] = g
		}
	}
	runners := make([]*runner, len(groups))
	sims := make([]*sim.Simulator, len(groups))
	for g := range groups {
		r := &runner{
			spec:   spec,
			s:      sim.New(sim.WithSeed(shardSeed(spec.Seed, g))),
			byName: make(map[string]*piconetRunner),
			// Compiled per shard (cheap, pure) so no oracle state is
			// shared across worker goroutines.
			fsched: spec.Faults.Compile(),
		}
		if spec.Interference.Enabled {
			r.medium = radio.NewMedium(spec.Interference.Channels, spec.Interference.Window,
				func() time.Duration { return r.s.Now() })
		}
		runners[g] = r
		sims[g] = r.s
	}

	// Routes live wholly inside the shard owning their hops.
	routeShard := make(map[piconet.FlowID]int)
	perShard := make([][]RouteSpec, len(groups))
	for _, rt := range spec.Routes {
		g := routeGroup(spec, groupOf, rt)
		routeShard[rt.ID] = g
		perShard[g] = append(perShard[g], rt)
	}
	for _, ev := range spec.Timeline {
		// Claim timeline route ids up front so a remove_route (or a
		// duplicate add) resolves to the same shard as the add.
		if ev.AddRoute != nil {
			if _, claimed := routeShard[ev.AddRoute.ID]; !claimed {
				routeShard[ev.AddRoute.ID] = routeGroup(spec, groupOf, *ev.AddRoute)
			}
		}
	}
	for g, r := range runners {
		if err := r.initRoutes(perShard[g]); err != nil {
			return nil, err
		}
	}

	// Build piconets in spec order, each into its owning shard, so every
	// shard assigns kernel seqs in the order its members are declared.
	for i, ps := range piconets {
		// Runtime hooks attach to the first piconet only.
		h := Hooks{}
		if i == 0 {
			h = hooks
		}
		// Run-start piconets derate against the full planned scatternet,
		// not the few piconets attached so far: all of them will be
		// active the moment the run begins.
		if _, err := runners[groupOf[ps.Name]].buildPiconet(ps, h, len(piconets)-1); err != nil {
			return nil, err
		}
	}
	// Timeline: each event applies at its simulated time; events sharing
	// an instant apply in slice order (the kernel is FIFO per instant).
	for _, ev := range spec.Timeline {
		ev := ev
		r := runners[timelineShard(spec, groupOf, routeShard, ev)]
		r.s.Schedule(ev.At, func() { r.applyEvent(ev) })
	}
	// Master crashes apply after any timeline events sharing their
	// instant: the scenario's planned changes happen, then the fault.
	for _, c := range spec.Faults.Crashes {
		name := c.Piconet
		r := runners[groupOf[name]]
		r.s.Schedule(c.At, func() { r.applyCrash(name) })
	}
	for _, r := range runners {
		for _, p := range r.pns {
			if err := p.pn.Start(); err != nil {
				return nil, fmt.Errorf("scenario: %w", err)
			}
		}
	}

	ss := sim.NewShardSet(sims...)
	epoch := spec.Duration
	var exchange func(end time.Duration)
	if spec.Interference.Enabled && len(runners) > 1 {
		epoch = interferenceEpoch
		clears := make([]float64, len(runners))
		exchange = func(end time.Duration) {
			// Single-threaded at the barrier, every shard clock at end:
			// snapshot each shard's clear-channel product, then install
			// the product of everyone else's as each shard's foreign
			// interference for the next epoch.
			for g, r := range runners {
				clears[g] = r.medium.ClearFactor(end)
			}
			for g, r := range runners {
				f := 1.0
				for h, c := range clears {
					if h != g {
						f *= c
					}
				}
				r.medium.SetForeignClear(f)
			}
		}
	}
	errs := ss.RunEpochs(spec.Duration, epoch, workers, exchange)
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario: run: %w", err)
		}
	}
	for _, r := range runners {
		for _, p := range r.pns {
			if err := p.pn.Err(); err != nil {
				return nil, fmt.Errorf("scenario: engine %q: %w", p.name, err)
			}
		}
	}
	for _, r := range runners {
		if r.err != nil {
			return nil, fmt.Errorf("scenario: timeline: %w", r.err)
		}
	}
	return mergeResults(spec, groups, runners), nil
}

// mergeResults assembles the run's Result: the declared piconets in spec
// order, then add_piconet arrivals in creation order; the admission logs
// of all shards interleaved chronologically (records sharing an instant
// keep shard order — the merge is stable); and the route table. No
// order depends on the worker count, so the merged result is
// byte-identical at any worker count.
func mergeResults(spec Spec, groups [][]string, runners []*runner) *Result {
	end := runners[0].s.Now()
	res := &Result{Spec: spec, Elapsed: end}
	for _, r := range runners {
		res.Events += r.s.Executed()
		res.Admissions = append(res.Admissions, r.admissions...)
	}
	sort.SliceStable(res.Admissions, func(i, j int) bool {
		return res.Admissions[i].At < res.Admissions[j].At
	})
	for _, ps := range spec.piconetSpecs() {
		for _, r := range runners {
			if p, ok := r.byName[ps.Name]; ok {
				res.Piconets = append(res.Piconets, p.collect(end))
				break
			}
		}
	}
	// Each shard built its declared members first; anything after them
	// arrived through add_piconet.
	for g, r := range runners {
		for _, p := range r.pns[len(groups[g]):] {
			res.Piconets = append(res.Piconets, p.collect(end))
		}
	}
	if len(runners) == 1 {
		// One group lists routes in creation order, several in
		// declaration order (routeOrder); unifying them moves results.
		res.Routes = runners[0].collectRoutes(end)
	} else {
		byID := make(map[piconet.FlowID]RouteResult)
		for _, r := range runners {
			for _, rr := range r.collectRoutes(end) {
				byID[rr.ID] = rr
			}
		}
		for _, id := range routeOrder(spec) {
			if rr, ok := byID[id]; ok {
				res.Routes = append(res.Routes, rr)
			}
		}
	}
	Rollup(res)
	return res
}
