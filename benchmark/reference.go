package main

import (
	"math"
	"time"
)

// The benchmark's host is a share of a machine others use too, and its
// speed drifts by tens of percent over minutes as their load comes and
// goes: in one set of ten catalogue runs the median iteration took 0.75 s
// in the first five and 1.08 s in the last five, with the same work. So
// every timed iteration is preceded by one pass of a fixed reference loop,
// and host times are reported in reference seconds: the measured time
// divided by the run's host slowness, the median reference time over
// refNominal.
//
// The reference is a discrete-event loop of the kind the simulator runs —
// a binary heap of pending events, a per-flow map, integer hashing and a
// little floating point — written here, so that no change to the simulator
// changes it. It allocates nothing, so the garbage collector's pacing does
// not reach it either. Its working set (about 0.5 MiB) outgrows the core's
// private caches, as the simulator's does: a neighbour's load slows both
// through the shared cache and memory, not only through the core. Over
// seeds 1–8, one 25 s run each on the host the benchmark was defined on,
// the spread of the runs' median wall_s was 15.9% (catalogue), 11.2%
// (fig5_replay) and 9.2% (scatternet_8pn); in reference seconds it was
// 3.1%, 3.9% and 7.0%. A loop of the same kind over a 24 KiB heap, timed
// in the same runs, left 9.0%, 5.6% and 7.5%.

const (
	// refEvents is the events one reference pass resolves.
	refEvents = 400_000
	// refPending is the pending-event heap's size, and refFlows the flows
	// the events update.
	refPending = 16384
	refFlows   = 4099
	// refNominal is about the median time of one reference pass on the host
	// the benchmark was defined on (a 2-vCPU Xeon VM, go1.24.0): the speed
	// in which reference seconds are counted.
	refNominal = 0.070
)

// refEvent is one pending reference event.
type refEvent struct {
	at   int64
	flow int32
	kind int32
	val  float64
}

// refLoop holds the reference's heap and flow table between passes, so
// that no pass allocates.
type refLoop struct {
	heap  []refEvent
	flows map[int32]float64
}

func newRefLoop() *refLoop {
	return &refLoop{heap: make([]refEvent, 0, refPending), flows: make(map[int32]float64, refFlows)}
}

// time runs one reference pass and returns its wall time in seconds.
func (r *refLoop) time() float64 {
	start := time.Now()
	r.pass()
	return time.Since(start).Seconds()
}

// pass resolves refEvents events: each pops the earliest, updates its flow,
// and reschedules it a pseudo-random delay later.
func (r *refLoop) pass() {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := r.heap[:0]
	for i := 0; i < refPending; i++ {
		v := next()
		h = append(h, refEvent{at: int64(v % 1_000_000), flow: int32(v % refFlows)})
		refUp(h, len(h)-1)
	}
	for i := 0; i < refEvents; i++ {
		e := h[0]
		v := next()
		r.flows[e.flow] += math.Sqrt(float64(v%1000)) * 0.5
		e.at += int64(v%5000) + 1
		e.kind = int32(v % 7)
		if e.kind < 2 {
			e.val = r.flows[(e.flow+1)%refFlows]
		} else {
			e.val++
		}
		h[0] = e
		refDown(h, 0)
	}
	r.heap = h
}

func refUp(h []refEvent, j int) {
	for j > 0 {
		i := (j - 1) / 2
		if h[i].at <= h[j].at {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func refDown(h []refEvent, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].at < h[l].at {
			m = r
		}
		if h[i].at <= h[m].at {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
