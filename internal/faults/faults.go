// Package faults declares deterministic fault plans for scenario runs:
// timed link outage windows per (piconet, slave), slave departure/return
// events, and master crashes. A plan is pure data — it travels inside
// scenario.Spec, serializes through the v2 codec and enters the spec's
// canonical fingerprint — and compiles into per-piconet schedules the
// piconet engine queries on every exchange.
//
// The composition contract: an active outage forces 100% loss on the
// affected link without consuming a single RNG draw, so the underlying
// channel model is frozen, not perturbed — a channel, stateful or not,
// resumes in exactly the state, and with exactly the draw sequence, it
// would have had if the engine had simply not transmitted.
// Fault-free specs are therefore byte-identical to runs of a build
// without this package.
package faults

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bluegs/internal/piconet"
)

// Forever is the open upper end of a link-down interval (a slave that
// departed and never returns).
const Forever = time.Duration(math.MaxInt64)

// Policy selects what the scenario runner does with a flow whose link the
// supervision timeout declared dead.
type Policy string

// Recovery policies.
const (
	// PolicyNone suspends the flow and leaves it suspended: the contract
	// is lost (but its queue is flushed, so packets stuck behind the dead
	// link never complete late).
	PolicyNone Policy = ""
	// PolicyDegrade renegotiates the suspended flow at a looser delay
	// bound (DegradeFactor × the spec's target) once the declared fault
	// window ends — graceful degradation instead of a hard drop.
	PolicyDegrade Policy = "degrade"
	// PolicyHandoff moves the suspended flow to another piconet
	// make-before-break: admission at the target precedes release at the
	// source.
	PolicyHandoff Policy = "handoff"
)

// Valid reports whether p is a known policy.
func (p Policy) Valid() bool {
	switch p {
	case PolicyNone, PolicyDegrade, PolicyHandoff:
		return true
	}
	return false
}

// LinkOutage forces the (Piconet, Slave) link into a 100%-loss state for
// [Start, End): every ACL or SCO exchange addressed to the slave in the
// window fails, both legs, with zero RNG draws.
type LinkOutage struct {
	// Piconet names the affected piconet ("" targets the spec's first —
	// and, for flat specs, only — piconet).
	Piconet string
	// Slave is the affected slave (1..7).
	Slave piconet.SlaveID
	// Start and End bound the outage window, relative to run start.
	Start, End time.Duration
}

// SlaveDeparture models a slave walking out of range at At and returning
// at ReturnAt (zero: never). While away, its link behaves exactly like an
// outage window.
type SlaveDeparture struct {
	Piconet string
	Slave   piconet.SlaveID
	At      time.Duration
	// ReturnAt, when nonzero, is when the slave comes back in range.
	ReturnAt time.Duration
}

// MasterCrash halts a whole piconet at At: the master stops polling
// permanently (piconet.Stop) and the piconet's flows are orphaned.
type MasterCrash struct {
	Piconet string
	At      time.Duration
}

// Plan is a declarative, deterministic fault plan. The zero value injects
// nothing.
type Plan struct {
	Outages    []LinkOutage
	Departures []SlaveDeparture
	Crashes    []MasterCrash
}

// Empty reports whether the plan injects no faults at all.
func (p Plan) Empty() bool {
	return len(p.Outages) == 0 && len(p.Departures) == 0 && len(p.Crashes) == 0
}

// Validate checks the plan's internal consistency: slave ids in 1..7,
// well-ordered windows, non-negative times, and at most one crash per
// piconet. Piconet-name resolution is the caller's (the scenario layer
// knows which names a run can create).
func (p Plan) Validate() error {
	checkSlave := func(what string, s piconet.SlaveID) error {
		if s < 1 || s > 7 {
			return fmt.Errorf("faults: %s slave %d outside 1..7", what, s)
		}
		return nil
	}
	for i, o := range p.Outages {
		if err := checkSlave("outage", o.Slave); err != nil {
			return err
		}
		if o.Start < 0 || o.End <= o.Start {
			return fmt.Errorf("faults: outage[%d] window [%v, %v) is not well-ordered", i, o.Start, o.End)
		}
	}
	for i, d := range p.Departures {
		if err := checkSlave("departure", d.Slave); err != nil {
			return err
		}
		if d.At < 0 {
			return fmt.Errorf("faults: departure[%d] at %v is negative", i, d.At)
		}
		if d.ReturnAt != 0 && d.ReturnAt <= d.At {
			return fmt.Errorf("faults: departure[%d] returns at %v, before it departs at %v", i, d.ReturnAt, d.At)
		}
	}
	crashed := make(map[string]bool, len(p.Crashes))
	for i, c := range p.Crashes {
		if c.At < 0 {
			return fmt.Errorf("faults: crash[%d] at %v is negative", i, c.At)
		}
		if crashed[c.Piconet] {
			return fmt.Errorf("faults: duplicate crash for piconet %q", c.Piconet)
		}
		crashed[c.Piconet] = true
	}
	return nil
}

// Resolve returns the plan with every empty piconet name replaced by def,
// copying only when something changes. The scenario layer uses it so an
// implicit and an explicit address of the first piconet describe — and
// fingerprint as — the same plan.
func (p Plan) Resolve(def string) Plan {
	if def == "" {
		return p
	}
	changed := false
	for _, o := range p.Outages {
		changed = changed || o.Piconet == ""
	}
	for _, d := range p.Departures {
		changed = changed || d.Piconet == ""
	}
	for _, c := range p.Crashes {
		changed = changed || c.Piconet == ""
	}
	if !changed {
		return p
	}
	out := Plan{
		Outages:    append([]LinkOutage(nil), p.Outages...),
		Departures: append([]SlaveDeparture(nil), p.Departures...),
		Crashes:    append([]MasterCrash(nil), p.Crashes...),
	}
	for i := range out.Outages {
		if out.Outages[i].Piconet == "" {
			out.Outages[i].Piconet = def
		}
	}
	for i := range out.Departures {
		if out.Departures[i].Piconet == "" {
			out.Departures[i].Piconet = def
		}
	}
	for i := range out.Crashes {
		if out.Crashes[i].Piconet == "" {
			out.Crashes[i].Piconet = def
		}
	}
	return out
}

// Interval is one merged link-down window [Start, End); End == Forever
// for a departure that never returns.
type Interval struct {
	Start, End time.Duration
}

// PiconetFaults is the compiled per-piconet fault schedule: merged,
// sorted link-down intervals per slave, plus the crash instant.
type PiconetFaults struct {
	slaves   map[piconet.SlaveID][]Interval
	crash    time.Duration
	hasCrash bool
}

// Schedule is a compiled Plan: per-piconet query structures the runner
// wires into each piconet engine.
type Schedule struct {
	byPiconet map[string]*PiconetFaults
}

// Compile merges the plan's outages and departures into per-(piconet,
// slave) sorted non-overlapping intervals and records crash times. A nil
// receiver-safe empty schedule compiles from the zero plan.
func (p Plan) Compile() *Schedule {
	s := &Schedule{byPiconet: make(map[string]*PiconetFaults)}
	pf := func(name string) *PiconetFaults {
		f := s.byPiconet[name]
		if f == nil {
			f = &PiconetFaults{slaves: make(map[piconet.SlaveID][]Interval)}
			s.byPiconet[name] = f
		}
		return f
	}
	for _, o := range p.Outages {
		f := pf(o.Piconet)
		f.slaves[o.Slave] = append(f.slaves[o.Slave], Interval{Start: o.Start, End: o.End})
	}
	for _, d := range p.Departures {
		end := d.ReturnAt
		if end == 0 {
			end = Forever
		}
		f := pf(d.Piconet)
		f.slaves[d.Slave] = append(f.slaves[d.Slave], Interval{Start: d.At, End: end})
	}
	for _, c := range p.Crashes {
		f := pf(c.Piconet)
		f.crash, f.hasCrash = c.At, true
	}
	for _, f := range s.byPiconet {
		for slave, ivs := range f.slaves {
			f.slaves[slave] = mergeIntervals(ivs)
		}
	}
	return s
}

// mergeIntervals sorts and coalesces overlapping or touching windows.
func mergeIntervals(ivs []Interval) []Interval {
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].Start != ivs[j].Start {
			return ivs[i].Start < ivs[j].Start
		}
		return ivs[i].End < ivs[j].End
	})
	out := ivs[:0]
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.Start <= out[n-1].End {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// Piconet returns the compiled faults of the named piconet, or nil when
// the plan never touches it (the engine then carries no fault hook at
// all). Nil-receiver safe.
func (s *Schedule) Piconet(name string) *PiconetFaults {
	if s == nil {
		return nil
	}
	return s.byPiconet[name]
}

// Crash returns the piconet's crash instant, if the plan crashes it.
func (s *Schedule) Crash(name string) (time.Duration, bool) {
	f := s.Piconet(name)
	if f == nil || !f.hasCrash {
		return 0, false
	}
	return f.crash, true
}

// Down reports whether the slave's link is inside a fault window at t.
// O(log n) per query; the engine calls it once per exchange.
func (f *PiconetFaults) Down(slave piconet.SlaveID, t time.Duration) bool {
	_, down := f.Covering(slave, t)
	return down
}

// Covering returns the merged fault interval containing t on the slave's
// link, if any. Recovery policies use it to learn when a declared-dead
// link is scheduled to return.
func (f *PiconetFaults) Covering(slave piconet.SlaveID, t time.Duration) (Interval, bool) {
	if f == nil {
		return Interval{}, false
	}
	ivs := f.slaves[slave]
	// First interval starting after t; the candidate is its predecessor.
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].Start > t })
	if i == 0 {
		return Interval{}, false
	}
	if iv := ivs[i-1]; t < iv.End {
		return iv, true
	}
	return Interval{}, false
}
