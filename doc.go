// Package bluegs is a Go reproduction of "Providing Delay Guarantees in
// Bluetooth" (Rachid Ait Yaiz and Geert Heijenk, ICDCSW'03): a Bluetooth
// intra-piconet polling mechanism that provides IETF Guaranteed Service
// (RFC 2212) delay bounds while leaving unused capacity to best-effort
// traffic.
//
// The implementation lives under internal/:
//
//   - internal/core — the paper's contribution: the Guaranteed Service
//     scheduler with fixed-interval (§3.1) and variable-interval (§3.2)
//     poll planners;
//   - internal/admission — the x_i fixed point (Fig. 2), feasibility
//     condition (eq. 8/9) and priority-reassigning, piggyback-aware
//     admission routine (Fig. 3), with optional interference derating:
//     an FH co-channel success probability s scales every reserved rate
//     to its effective service rate R·s in the bound math, grows the
//     exported error terms by a retransmission budget, and re-derives
//     accepted contracts when the estimate moves (SetSuccessProb);
//   - internal/piconet, internal/baseband, internal/sim — the simulated
//     Bluetooth substrate (TDD slot engine, packet types, event kernel);
//   - internal/poller — best-effort pollers: RR, ERR, FEP, EDC,
//     demand-based, HOL priority, and the Predictive Fair Poller;
//   - internal/gs, internal/tspec, internal/segmentation — RFC 2212 delay
//     bound math, the token-bucket TSpec, and best-fit segmentation;
//   - internal/scenario — the declarative scenario API: a pure-data,
//     JSON-serializable Spec (radio/poller/size distributions by name
//     plus parameters) with a Timeline of mid-run changes — GS flows
//     arrive through the paper's online admission test and may be
//     rejected, flows and SCO voice links come and go, whole piconets
//     join and leave — a scenario registry of named presets, and the
//     runner threading online admission through piconet, core and
//     admission (Result.Admissions logs every request's outcome). The
//     scatternet form (Spec.Piconets) runs N co-located piconets, each
//     with its own scheduler and admission controller, coupled through
//     the 1/79 FH co-channel collision model
//     (radio.Medium/HopInterference) — the flat single-piconet spec is
//     its byte-identical degenerate case. Execution shards the event
//     kernel per bridge-connected piconet group (sim.ShardSet:
//     conservative parallel DES, interference snapshots exchanged at
//     fixed epochs); Spec.KernelWorkers multiplexes the shards onto
//     worker goroutines and is a pure execution knob — results,
//     fingerprints and cache keys are byte-identical at every count.
//     Spec.Faults/Spec.Recovery add fault injection and self-healing:
//     declared link outages, slave departures and master crashes meet
//     a supervision timeout (N failed polls declare a link dead and
//     suspend its flows) and a recovery policy — nothing, graceful
//     degradation (re-admit at a looser bound when the link returns),
//     or make-before-break handoff to another piconet (the target
//     admits before the source releases; the move_flow timeline event
//     exposes the same migration to operators);
//   - internal/faults — the pure-data fault plan behind Spec.Faults:
//     validated outage/departure/crash declarations compiled into
//     per-piconet schedules of merged downtime windows the engine
//     consults on every poll decision;
//   - internal/experiments — one entry point per paper table/figure,
//     plus the churn studies (accept ratio and bound compliance under
//     Poisson GS flow arrivals, for every best-effort poller), the
//     E9 scatternet study (how the per-piconet delay bounds erode as
//     co-channel interference grows with the piconet count), and the
//     E10 interference-aware admission study (the same workload with
//     derated admission: violation fraction ~0, bought with a lower
//     online accept ratio), and the E11 fault study (outage rate ×
//     duration × recovery policy: guarantee-survival fraction,
//     supervision detection latency, post-recovery bound compliance);
//   - internal/harness — the parallel experiment runner: sweep grids
//     (delay target × poller × seed replication) fan out across a bounded
//     worker pool with per-replication seed derivation, so every cmd tool
//     reproduces the paper's sweeps bit-identically at any worker count
//     and reports multi-seed 95% confidence intervals.
//
// See internal/README.md for the package map and the experiment index,
// and EXPERIMENTS.md for paper-versus-measured results.
// The benchmarks in bench_test.go regenerate every table and figure.
package bluegs
