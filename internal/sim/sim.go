// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a pending-event set ordered by
// (time, sequence). Events scheduled for the same instant fire in scheduling
// order (FIFO), which makes every run bit-for-bit reproducible given the same
// seed. There is no concurrency: all event handlers run on the caller's
// goroutine, so handlers may freely mutate shared simulation state without
// locks.
//
// Time is expressed as time.Duration offsets from the simulation start.
//
// # Kernel design
//
// The kernel is allocation-free in steady state. Event records live in a
// pooled slab ([]eventSlot) recycled through a free list; a generation
// counter per slot makes stale Event handles (to events that already fired
// or were cancelled and discarded) safe to Cancel. Pending events are routed
// to one of two structures:
//
//   - A slot-granularity timer wheel for events that land exactly on
//     Bluetooth's 625 µs slot grid (SlotGrain) within the wheel window
//     (wheelSlots slots ahead of the clock). In a piconet run this is the
//     overwhelming majority: master decision wake-ups, poll and SCO
//     completions, and CBR arrivals are all slot-aligned. Wheel insert and
//     pop are O(1), and draining a same-time batch walks a per-slot FIFO
//     list without any re-heapification.
//   - A concrete 4-ary min-heap of slot indices, keyed on (at, seq), for
//     everything else (off-grid times, or grid times beyond the wheel
//     window). The heap is index-based and monomorphic: no interface
//     dispatch and no per-push boxing, unlike container/heap.
//
// Because both structures can simultaneously hold events for the same
// instant (an on-grid event scheduled far ahead lands in the heap), every
// pop compares the earliest candidate of each by (at, seq) before firing, so
// the global FIFO guarantee holds regardless of routing.
//
// Determinism invariants: firing order is the strict lexicographic order of
// (at, seq); seq is assigned in Schedule call order; no kernel decision
// depends on map iteration, pointer values, or the free-list state. Two runs
// that issue the same Schedule/Cancel sequence observe the same firing
// sequence, always.
//
// Reset(seed) returns a used kernel to the state New(WithSeed(seed))
// gives, keeping its slab, wheel arrays and RNG state: every slot's
// generation moves on (so no earlier handle can touch the next run), the
// slots rejoin the free list, and the RNG is reseeded in place. Because no
// decision depends on the free-list state, a reset kernel fires the same
// sequence and draws the same stream as a fresh one. The scenario runner
// keeps used kernels in a sync.Pool and resets one per shard group, so a
// grid of short runs stops building a kernel (two 1,024-entry wheel
// arrays and a 607-word RNG state) per run.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp: the elapsed simulated time since the start of
// the run. It is an alias (not a defined type) so that callers can use
// time.Duration arithmetic and constants directly.
type Time = time.Duration

// SlotGrain is the granularity of the timer-wheel fast path: the Bluetooth
// slot length (625 µs, matching baseband.SlotDuration). Events scheduled at
// an exact multiple of SlotGrain within the wheel window bypass the heap.
const SlotGrain = 625 * time.Microsecond

// ErrStopped is returned by Run when the simulation was stopped explicitly
// via Stop before reaching the requested horizon.
var ErrStopped = errors.New("sim: stopped")

// Handler is an event callback. It runs at the event's scheduled time.
type Handler func()

// noSlot marks an empty slot-index link (free list, wheel bucket, heap).
const noSlot int32 = -1

// eventSlot is the pooled storage for one scheduled event. Slots are
// recycled through a free list; gen increments on every recycle so that
// stale handles can be detected.
type eventSlot struct {
	at        Time
	seq       uint64
	fn        Handler
	next      int32 // wheel-bucket chain or free-list link
	gen       uint32
	cancelled bool
}

// Event is a handle to a scheduled event, used to cancel it before it fires.
// It is a small value (not a pointer): the underlying storage is pooled and
// recycled by the kernel, and the handle's generation counter detects
// staleness. The zero Event is valid to use and refers to no event.
type Event struct {
	s   *Simulator
	idx int32
	gen uint32
}

// slot returns the handle's pool slot if the handle still refers to it, or
// nil when the handle is zero or stale (the event fired or was discarded and
// its slot recycled).
func (e Event) slot() *eventSlot {
	if e.s == nil || e.idx < 0 || int(e.idx) >= len(e.s.events) {
		return nil
	}
	sl := &e.s.events[e.idx]
	if sl.gen != e.gen {
		return nil
	}
	return sl
}

// Pending reports whether the event is still scheduled and not cancelled.
// It returns false for the zero Event and for stale handles.
func (e Event) Pending() bool {
	sl := e.slot()
	return sl != nil && !sl.cancelled
}

// Cancelled reports whether Cancel has been called on the event and the
// event has not yet been discarded. Stale handles report false.
func (e Event) Cancelled() bool {
	sl := e.slot()
	return sl != nil && sl.cancelled
}

// At returns the virtual time the event is scheduled for, or zero when the
// handle is no longer pending.
func (e Event) At() Time {
	sl := e.slot()
	if sl == nil {
		return 0
	}
	return sl.at
}

// Cancel is shorthand for Simulator.Cancel on the event's simulator.
func (e Event) Cancel() {
	if e.s != nil {
		e.s.Cancel(e)
	}
}

// Simulator is a discrete-event simulator. Create one with New.
type Simulator struct {
	now     Time
	seq     uint64
	stopped bool
	rng     *rand.Rand
	// executed counts events that have fired (for diagnostics and tests).
	executed uint64
	// live counts scheduled, non-cancelled events (Pending's answer).
	live int

	// events is the pooled event slab; free heads its free list.
	events []eventSlot
	free   int32

	// heap holds slot indices of off-grid / far-future events as a 4-ary
	// min-heap on (at, seq).
	heap []int32

	// wheelHead/wheelTail are per-bucket FIFO chains of on-grid events.
	// wheelCount includes cancelled-but-undiscarded wheel events;
	// wheelNext is a lower bound on the earliest occupied wheel slot.
	wheelHead  []int32
	wheelTail  []int32
	wheelCount int
	wheelNext  int64
}

// Option configures a Simulator.
type Option func(*Simulator)

// WithSeed seeds the simulator's random number generator. The default seed
// is 1, so runs are deterministic even when no seed is supplied.
func WithSeed(seed int64) Option {
	return func(s *Simulator) {
		s.rng = rand.New(rand.NewSource(seed))
	}
}

// New returns a Simulator with its clock at zero.
func New(opts ...Option) *Simulator {
	s := &Simulator{
		free:      noSlot,
		wheelHead: make([]int32, wheelSlots),
		wheelTail: make([]int32, wheelSlots),
	}
	for i := range s.wheelHead {
		s.wheelHead[i] = noSlot
		s.wheelTail[i] = noSlot
	}
	for _, opt := range opts {
		opt(s)
	}
	// Seeding a source is costly (it fills a 607-word state), so the
	// default seed-1 source is built only when no option set one.
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(1))
	}
	return s
}

// Reset returns the simulator to the state New(WithSeed(seed)) gives, in
// place and without allocating: every pending event is discarded, every
// handle taken before the call goes stale (Pending is false, Cancel is a
// no-op), the clock and counters return to zero, and the RNG restarts the
// seed's stream. The event slab, wheel and heap keep their memory, so a
// kernel reused across runs grows only to the largest run it served.
func (s *Simulator) Reset(seed int64) {
	s.free = noSlot
	for i := len(s.events) - 1; i >= 0; i-- {
		sl := &s.events[i]
		sl.gen++
		sl.fn = nil
		sl.cancelled = false
		sl.next = s.free
		s.free = int32(i)
	}
	for i := range s.wheelHead {
		s.wheelHead[i] = noSlot
		s.wheelTail[i] = noSlot
	}
	s.heap = s.heap[:0]
	s.now, s.seq, s.stopped = 0, 0, false
	s.executed, s.live = 0, 0
	s.wheelCount, s.wheelNext = 0, 0
	s.rng.Seed(seed)
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's random number generator. All stochastic model
// components must draw from this generator so that a run is reproducible
// from its seed.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Executed returns the number of events that have fired so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// Pending returns the number of events currently scheduled and not
// cancelled. Cancelled events no longer count (they are discarded lazily,
// but a live-event counter keeps this exact).
func (s *Simulator) Pending() int { return s.live }

// alloc pops a slot off the free list, growing the slab when empty.
func (s *Simulator) alloc() int32 {
	if s.free != noSlot {
		idx := s.free
		s.free = s.events[idx].next
		return idx
	}
	s.events = append(s.events, eventSlot{})
	return int32(len(s.events) - 1)
}

// recycle returns a slot to the free list, bumping its generation so stale
// handles are detected and releasing the handler reference.
func (s *Simulator) recycle(idx int32) {
	sl := &s.events[idx]
	sl.gen++
	sl.fn = nil
	sl.next = s.free
	s.free = idx
}

// Schedule registers fn to run at the absolute virtual time at. Scheduling
// in the past (before Now) or with a nil handler is an error and returns the
// zero Event; models must never travel backwards in time.
func (s *Simulator) Schedule(at Time, fn Handler) Event {
	if at < s.now || fn == nil {
		return Event{}
	}
	idx := s.alloc()
	sl := &s.events[idx]
	sl.at = at
	sl.seq = s.seq
	sl.fn = fn
	sl.next = noSlot
	sl.cancelled = false
	s.seq++
	s.live++
	if at%SlotGrain == 0 {
		if slot := int64(at / SlotGrain); slot < s.cursor()+wheelSlots {
			s.wheelPush(slot, idx)
			return Event{s: s, idx: idx, gen: sl.gen}
		}
	}
	s.heapPush(idx)
	return Event{s: s, idx: idx, gen: sl.gen}
}

// After registers fn to run d after the current virtual time. A negative d
// is treated as zero.
func (s *Simulator) After(d time.Duration, fn Handler) Event {
	if d < 0 {
		d = 0
	}
	return s.Schedule(s.now+d, fn)
}

// Cancel marks the event as cancelled so that it will be skipped when its
// time arrives. Cancelling the zero Event, an already-cancelled event, or a
// stale handle (the event fired, or its pool slot was recycled) is a no-op.
func (s *Simulator) Cancel(e Event) {
	if e.s != s {
		return
	}
	sl := e.slot()
	if sl == nil || sl.cancelled {
		return
	}
	sl.cancelled = true
	sl.fn = nil
	s.live--
}

// Stop makes the current or next Run call return ErrStopped after the
// currently executing handler (if any) finishes.
func (s *Simulator) Stop() { s.stopped = true }

// next selects the earliest live event without removing it, comparing the
// wheel's and the heap's earliest candidates by (at, seq). fromWheel tells
// which structure holds the winner.
func (s *Simulator) next() (idx int32, fromWheel, ok bool) {
	wIdx, wOK := s.wheelPeek()
	hIdx, hOK := s.heapPeek()
	switch {
	case !wOK && !hOK:
		return noSlot, false, false
	case !hOK:
		return wIdx, true, true
	case !wOK:
		return hIdx, false, true
	}
	w, h := &s.events[wIdx], &s.events[hIdx]
	if w.at != h.at {
		if w.at < h.at {
			return wIdx, true, true
		}
		return hIdx, false, true
	}
	if w.seq < h.seq {
		return wIdx, true, true
	}
	return hIdx, false, true
}

// fire removes the selected event, advances the clock and runs the handler.
// The slot is recycled before the handler runs, so handlers may schedule
// freely into the just-freed slot.
func (s *Simulator) fire(idx int32, fromWheel bool) {
	if fromWheel {
		s.wheelPopHead(idx)
	} else {
		s.heapPop()
	}
	sl := &s.events[idx]
	at, fn := sl.at, sl.fn
	s.recycle(idx)
	s.live--
	if at < s.now {
		// Defensive: the ordering invariant guarantees this never
		// happens; treat it as corruption.
		panic(fmt.Sprintf("sim: event at %v is before now %v", at, s.now))
	}
	s.now = at
	s.executed++
	fn()
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed (false when the
// queue is empty). Cancelled events are discarded without executing and
// without counting as a step.
func (s *Simulator) Step() bool {
	idx, fromWheel, ok := s.next()
	if !ok {
		return false
	}
	s.fire(idx, fromWheel)
	return true
}

// Run executes events in timestamp order until the queue is empty, the clock
// would pass horizon, or Stop is called. On a horizon stop the clock is set
// to exactly horizon, so subsequent scheduling resumes from there. Events
// scheduled exactly at horizon are executed.
func (s *Simulator) Run(horizon Time) error {
	if horizon < s.now {
		return fmt.Errorf("sim: horizon %v is before now %v", horizon, s.now)
	}
	s.stopped = false
	for {
		if s.stopped {
			return ErrStopped
		}
		idx, fromWheel, ok := s.next()
		if !ok || s.events[idx].at > horizon {
			s.now = horizon
			return nil
		}
		s.fire(idx, fromWheel)
	}
}

// RunAll executes events until the queue is empty or Stop is called.
func (s *Simulator) RunAll() error {
	s.stopped = false
	for {
		if s.stopped {
			return ErrStopped
		}
		if !s.Step() {
			return nil
		}
	}
}
