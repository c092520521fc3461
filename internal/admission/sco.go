package admission

import (
	"errors"
	"fmt"
	"time"

	"bluegs/internal/baseband"
)

// SCO-related admission errors.
var (
	ErrSCOMixedTypes = errors.New("admission: all SCO links must use the same HV type")
	ErrSCOWindow     = errors.New("admission: flow's worst exchange exceeds the free window between SCO reservations")
)

// scoLimits is what the configured SCO links impose on one plan: an
// implicit highest-priority poll stream and the largest ACL exchange that
// fits between reservations. A plan derives it once and applies it to
// every stream.
type scoLimits struct {
	// stream holds the aggregate SCO stream; n is 1 when links exist.
	stream [1]Stream
	n      int
	// window is the free window in slots (very large without links).
	window int
}

// scoLimits converts the configured SCO links into one aggregate
// highest-priority poll stream for the Fig. 2 fixed point, and the free
// window between reservations.
//
// Per cadence interval T (slots), n same-type links occupy 2n slots
// unconditionally, and the poll additionally risks one dead gap of up to
// (window-1) slots in which no exchange fits before the next reservation.
// Both effects are conservatively folded into a single stream with
// interval T and exchange time (T-1) slots; every Guaranteed Service
// stream treats it as higher priority than itself.
func (c *Config) scoLimits() (scoLimits, error) {
	if len(c.SCOLinks) == 0 {
		return scoLimits{window: 1 << 30}, nil
	}
	typ := c.SCOLinks[0].Type
	for _, l := range c.SCOLinks[1:] {
		if l.Type != typ {
			return scoLimits{}, fmt.Errorf("%w: %v and %v", ErrSCOMixedTypes, typ, l.Type)
		}
	}
	interval := c.SCOLinks[0].IntervalSlots()
	return scoLimits{
		stream: [1]Stream{{
			Interval: baseband.SlotsToDuration(interval),
			Exchange: baseband.SlotsToDuration(interval - 1),
		}},
		n:      1,
		window: max(interval-2*len(c.SCOLinks), 0),
	}, nil
}

// streams returns the SCO stream, if any, for a higher-priority list.
func (l *scoLimits) streams() []Stream { return l.stream[:l.n] }

// checkWindow rejects a stream whose worst exchange cannot fit between
// reservations (it could never be scheduled).
func (l *scoLimits) checkWindow(exchange time.Duration) error {
	if baseband.DurationToSlots(exchange) > l.window {
		return fmt.Errorf("%w: exchange %v, window %d slots", ErrSCOWindow, exchange, l.window)
	}
	return nil
}
