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

// scoStreams converts the configured SCO links into one aggregate
// highest-priority poll stream for the Fig. 2 fixed point.
//
// Per cadence interval T (slots), n same-type links occupy 2n slots
// unconditionally, and the poll additionally risks one dead gap of up to
// (window-1) slots in which no exchange fits before the next reservation.
// Both effects are conservatively folded into a single stream with
// interval T and exchange time (T-1) slots; every Guaranteed Service
// stream treats it as higher priority than itself.
func (c Config) scoStreams() ([]Stream, error) {
	if len(c.SCOLinks) == 0 {
		return nil, nil
	}
	typ := c.SCOLinks[0].Type
	for _, l := range c.SCOLinks[1:] {
		if l.Type != typ {
			return nil, fmt.Errorf("%w: %v and %v", ErrSCOMixedTypes, typ, l.Type)
		}
	}
	interval := c.SCOLinks[0].IntervalSlots()
	return []Stream{{
		Interval: baseband.SlotsToDuration(interval),
		Exchange: baseband.SlotsToDuration(interval - 1),
	}}, nil
}

// scoWindowSlots returns the largest ACL exchange (in slots) that fits
// between SCO reservations, or a very large value without SCO links.
func (c Config) scoWindowSlots() int {
	if len(c.SCOLinks) == 0 {
		return 1 << 30
	}
	window := c.SCOLinks[0].IntervalSlots() - 2*len(c.SCOLinks)
	if window < 0 {
		window = 0
	}
	return window
}

// checkSCOWindow rejects a stream whose worst exchange cannot fit between
// reservations (it could never be scheduled).
func (c Config) checkSCOWindow(exchange time.Duration) error {
	window := c.scoWindowSlots()
	if baseband.DurationToSlots(exchange) > window {
		return fmt.Errorf("%w: exchange %v, window %d slots", ErrSCOWindow, exchange, window)
	}
	return nil
}
