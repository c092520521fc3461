package radio

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"bluegs/internal/baseband"
)

// DefaultFHChannels is the size of the Bluetooth frequency-hopping set: 79
// 1 MHz channels. Co-located piconets hop over the same set with
// uncorrelated sequences, so two simultaneous transmissions land on the
// same channel — and destroy each other — with probability ~1/79 per hop.
const DefaultFHChannels = 79

// DefaultUtilizationWindow is the minimum elapsed time a piconet's channel
// utilization is estimated over. Before that much simulated time has
// passed the estimate divides by the floor instead, so a piconet's very
// first exchanges do not read as 100% load.
const DefaultUtilizationWindow = 250 * time.Millisecond

// Medium models the shared FH spectrum of co-located piconets. Each
// piconet attaches once and receives a HopInterference model that wraps
// its own channel model; every packet any of them sends is then exposed
// to co-channel collisions derived from the number and load of the other
// attached piconets (the classic 1/C frequency-hopping collision
// approximation):
//
//	P(collision) = 1 − ∏_{j≠i} (1 − q_j/C)
//
// where C is the hop-set size and q_j is piconet j's channel occupancy —
// 1 when j is transmitting at this instant, otherwise its measured
// utilization (busy airtime over elapsed time). A Medium belongs to one
// simulation run: all attached piconets must share the clock passed to
// NewMedium, and the struct is not safe for concurrent use (runs are
// single-threaded by construction).
type Medium struct {
	channels  int
	minWindow time.Duration
	now       func() time.Duration
	piconets  []*Activity
	// foreignClear is the epoch-snapshot clear-channel product
	// ∏ (1 − q_j/C) contributed by piconets attached to *other* shards'
	// media when the run is sharded (see SetForeignClear): collisionProb
	// multiplies the live local product by it. 1 — the NewMedium default
	// — means no foreign interferers, which keeps single-kernel runs on
	// the exact pre-shard arithmetic.
	foreignClear float64
}

// NewMedium creates a shared spectrum with the given hop-set size
// (<= 0 means DefaultFHChannels), utilization window floor (<= 0 means
// DefaultUtilizationWindow) and simulation clock.
func NewMedium(channels int, minWindow time.Duration, now func() time.Duration) *Medium {
	if channels <= 0 {
		channels = DefaultFHChannels
	}
	if minWindow <= 0 {
		minWindow = DefaultUtilizationWindow
	}
	return &Medium{channels: channels, minWindow: minWindow, now: now, foreignClear: 1}
}

// Channels returns the hop-set size.
func (m *Medium) Channels() int { return m.channels }

// Activity is one attached piconet's transmission record: when it is busy
// and how much airtime it has accumulated. The medium reads it to compute
// the collision probability seen by everyone else.
type Activity struct {
	m *Medium
	// attachedAt anchors the utilization estimate's elapsed time.
	attachedAt time.Duration
	// busyUntil is the end of the piconet's latest transmission;
	// busyTotal the accumulated airtime.
	busyUntil time.Duration
	busyTotal time.Duration
	// active is cleared when the piconet leaves the scatternet; an
	// inactive piconet no longer interferes.
	active bool
}

// Attach registers a piconet and returns its interference-wrapped channel
// model: base decides the fate of packets that survive co-channel
// collisions (nil means the ideal channel).
func (m *Medium) Attach(base Model) *HopInterference {
	if base == nil {
		base = Ideal{}
	}
	act := &Activity{m: m, attachedAt: m.now(), active: true}
	m.piconets = append(m.piconets, act)
	return &HopInterference{base: base, act: act}
}

// Detach removes a piconet from the scatternet: it stops interfering with
// the others immediately (its own model keeps working, colliding with the
// remaining active piconets), and its Activity record is dropped from the
// medium so long join/leave churn does not accumulate dead entries.
func (m *Medium) Detach(h *HopInterference) {
	if h == nil {
		return
	}
	h.act.active = false
	for i, a := range m.piconets {
		if a == h.act {
			m.piconets = append(m.piconets[:i], m.piconets[i+1:]...)
			break
		}
	}
}

// Attached returns the number of piconets currently attached to the
// medium (detached piconets are removed, so this is also the slice
// length — the churn regression tests assert on it).
func (m *Medium) Attached() int { return len(m.piconets) }

// ActivePiconets counts the attached piconets that still interfere.
func (m *Medium) ActivePiconets() int {
	n := 0
	for _, a := range m.piconets {
		if a.active {
			n++
		}
	}
	return n
}

// utilization estimates the piconet's busy fraction at the given instant.
// Transmissions are booked in full when they start (observe), so the part
// of the latest booking that has not yet elapsed — busyUntil beyond now —
// is clipped off before dividing: a mid-flight query must not count
// airtime that has not happened yet.
func (a *Activity) utilization(now time.Duration) float64 {
	elapsed := now - a.attachedAt
	if elapsed < a.m.minWindow {
		elapsed = a.m.minWindow
	}
	busy := a.busyTotal
	if a.busyUntil > now {
		busy -= a.busyUntil - now
	}
	u := float64(busy) / float64(elapsed)
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// observe books one transmission of the given airtime starting at now.
// Back-to-back legs of one exchange extend the busy interval instead of
// overlapping it.
func (a *Activity) observe(now time.Duration, airtime time.Duration) {
	if a.busyUntil < now {
		a.busyUntil = now
	}
	a.busyUntil += airtime
	a.busyTotal += airtime
}

// Utilization exposes the current busy-fraction estimate (for reports).
func (a *Activity) Utilization(now time.Duration) float64 { return a.utilization(now) }

// collisionProb is the probability that a packet of piconet self collides
// with any concurrently transmitting co-located piconet.
func (m *Medium) collisionProb(self *Activity, now time.Duration) float64 {
	return 1 - m.clearProduct(m.foreignClear, self, now)
}

// ClearFactor returns the clear-channel product ∏ (1 − q_j/C) over this
// medium's active piconets at the given instant — the contribution its
// piconets make to the collision probability seen from *outside* the
// medium. A sharded run calls it at every epoch barrier (with all shard
// clocks parked at the boundary) to build each shard's foreign snapshot:
// foreign piconets that are mid-transmission at the boundary count as
// fully occupying one hop channel (q = 1), exactly as a live reader at
// that instant would see them.
func (m *Medium) ClearFactor(now time.Duration) float64 {
	return m.clearProduct(1, nil, now)
}

// clearProduct multiplies clear by (1 − q_j/C) for every active piconet
// except skip (nil skips none), in attach order.
func (m *Medium) clearProduct(clear float64, skip *Activity, now time.Duration) float64 {
	c := float64(m.channels)
	for _, a := range m.piconets {
		if a == skip || !a.active {
			continue
		}
		q := a.utilization(now)
		if a.busyUntil > now {
			// The piconet is on air right now: it occupies exactly one
			// (unknown) hop channel for the overlap.
			q = 1
		}
		clear *= 1 - q/c
	}
	return clear
}

// SetForeignClear installs the epoch snapshot of the spectrum outside
// this medium: the clear-channel product of every foreign piconet,
// frozen at the epoch boundary. collisionProb folds it into every local
// read until the next barrier replaces it. Callers must only invoke it
// between epochs (the sharded runner's barrier is single-threaded);
// 1 restores the unsharded default of "no foreign interferers".
func (m *Medium) SetForeignClear(clear float64) {
	if !(clear > 0 && clear <= 1) { // also catches NaN
		clear = 1
	}
	m.foreignClear = clear
}

// HopInterference exposes one piconet's packets to the scatternet's
// co-channel collisions before handing survivors to the wrapped channel
// model. Create with Medium.Attach.
type HopInterference struct {
	base Model
	act  *Activity
}

var _ Model = (*HopInterference)(nil)

// Deliver implements Model: the packet is first booked as channel
// occupancy, then survives with probability 1 − P(collision), then faces
// the wrapped model. When no other piconet is active the collision draw
// is skipped entirely, so a one-piconet scatternet consumes exactly the
// RNG stream of the bare base model.
func (h *HopInterference) Deliver(rng *rand.Rand, t baseband.PacketType) bool {
	now := h.act.m.now()
	p := h.act.m.collisionProb(h.act, now)
	h.act.observe(now, t.Duration())
	if p > 0 && rng.Float64() < p {
		return false
	}
	return h.base.Deliver(rng, t)
}

// Name implements Model.
func (h *HopInterference) Name() string {
	return fmt.Sprintf("hop-interference(%s)", h.base.Name())
}

// Base returns the wrapped channel model.
func (h *HopInterference) Base() Model { return h.base }

// Utilization exposes the piconet's busy-fraction estimate at the given
// instant (for reports).
func (h *HopInterference) Utilization(now time.Duration) float64 {
	return h.act.utilization(now)
}

// ExpectedCollisionProb is the admission controller's a-priori collision
// estimate for a piconet sharing the hop set with `others` co-located
// piconets: 1 − (1 − 1/C)^others. It deliberately assumes every other
// piconet is on air whenever we are (q_j = 1) — the admission guarantee
// must hold at full co-channel load, not at the current traffic mix — so
// it upper-bounds the instantaneous collisionProb the medium draws
// against. channels <= 0 means DefaultFHChannels.
func ExpectedCollisionProb(others, channels int) float64 {
	if others <= 0 {
		return 0
	}
	if channels <= 0 {
		channels = DefaultFHChannels
	}
	return 1 - math.Pow(1-1/float64(channels), float64(others))
}

// ExpectedCollisionProb is the medium's estimate for one attached
// piconet: the package-level bound evaluated against the other currently
// active piconets. A nil h (or one not attached to m) is treated as an
// outside observer and sees all active piconets as interferers.
func (m *Medium) ExpectedCollisionProb(h *HopInterference) float64 {
	others := m.ActivePiconets()
	if h != nil && h.act.active {
		others--
	}
	return ExpectedCollisionProb(others, m.channels)
}

// MeasuredCollisionProb exposes the instantaneous collision probability
// one attached piconet faces right now, from the other piconets' actual
// on-air state and measured utilization (for reports; the admission path
// uses the conservative ExpectedCollisionProb instead).
func (m *Medium) MeasuredCollisionProb(h *HopInterference, now time.Duration) float64 {
	if h == nil {
		return 0
	}
	return m.collisionProb(h.act, now)
}
