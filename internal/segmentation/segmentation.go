// Package segmentation breaks higher-layer packets into baseband packets
// and derives the quantities the paper's analysis needs: the number of
// segments n of a packet, the minimum poll efficiency eta_min over a
// flow's packet-size range (paper eq. 4), and the worst-case segment air
// time.
//
// The paper plans with one rule, best fit: "the largest available
// baseband packet is used, unless the remainder of the higher layer
// packet fits in a smaller baseband packet."
package segmentation

import (
	"errors"
	"fmt"

	"bluegs/internal/baseband"
)

// Errors returned by segmentation.
var (
	ErrNoACLTypes = errors.New("segmentation: allowed set contains no ACL packet types")
	ErrBadSize    = errors.New("segmentation: packet size must be positive")
	ErrBadRange   = errors.New("segmentation: need 0 < min <= max packet size")
)

// Segment is one baseband packet of a segmentation plan: the chosen type and
// the number of payload bytes it actually carries.
type Segment struct {
	Type  baseband.PacketType
	Bytes int
}

// Plan is an ordered segmentation of one higher-layer packet.
type Plan []Segment

// TotalBytes returns the payload bytes carried by the plan.
func (p Plan) TotalBytes() int {
	total := 0
	for _, s := range p {
		total += s.Bytes
	}
	return total
}

// Slots returns the air slots consumed by the plan's packets (one direction
// only; responses are accounted separately by the piconet).
func (p Plan) Slots() int {
	slots := 0
	for _, s := range p {
		slots += s.Type.Slots()
	}
	return slots
}

// String renders e.g. "[DH3:183 DH1:17]".
func (p Plan) String() string {
	out := "["
	for i, s := range p {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%v:%d", s.Type, s.Bytes)
	}
	return out + "]"
}

// BestFit returns the paper's plan for a packet of size bytes: each
// segment uses the largest allowed packet, unless the remaining bytes fit
// into a smaller allowed packet, in which case the smallest fitting
// packet is used.
func BestFit(size int, allowed baseband.TypeSet) (Plan, error) {
	return AppendBestFit(nil, size, allowed)
}

// AppendBestFit is BestFit writing the plan into dst's backing array
// (extending it only when capacity runs out) instead of allocating a
// fresh Plan per packet. The piconet's packet pool uses it to recycle
// plan storage across arrivals.
func AppendBestFit(dst Plan, size int, allowed baseband.TypeSet) (Plan, error) {
	if size <= 0 {
		return nil, ErrBadSize
	}
	largest, ok := allowed.LargestACL()
	if !ok {
		return nil, ErrNoACLTypes
	}
	plan := dst
	remaining := size
	for remaining > 0 {
		if t, fits := allowed.SmallestFitting(remaining); fits {
			plan = append(plan, Segment{Type: t, Bytes: remaining})
			remaining = 0
			break
		}
		plan = append(plan, Segment{Type: largest, Bytes: largest.Payload()})
		remaining -= largest.Payload()
	}
	return plan, nil
}

// Efficiency is a poll-efficiency sample: the packet size achieving it and
// the resulting bytes-per-poll value.
type Efficiency struct {
	// Size is the higher-layer packet size in bytes.
	Size int
	// Segments is the number of polls (segments) the packet needs.
	Segments int
	// BytesPerPoll is Size/Segments, the paper's eta.
	BytesPerPoll float64
}

// MinPollEfficiency computes eta_min over all packet sizes in [minSize,
// maxSize] (paper eq. 4): the minimum, over the flow's possible packet
// sizes, of useful bytes per poll. The worst case pins the poll interval
// t = eta_min / R.
func MinPollEfficiency(minSize, maxSize int, allowed baseband.TypeSet) (Efficiency, error) {
	if minSize <= 0 || minSize > maxSize {
		return Efficiency{}, ErrBadRange
	}
	best := Efficiency{}
	found := false
	var buf Plan
	for size := minSize; size <= maxSize; size++ {
		plan, err := AppendBestFit(buf[:0], size, allowed)
		if err != nil {
			return Efficiency{}, err
		}
		buf = plan
		n := len(plan)
		eta := float64(size) / float64(n)
		if !found || eta < best.BytesPerPoll {
			best = Efficiency{Size: size, Segments: n, BytesPerPoll: eta}
			found = true
		}
	}
	return best, nil
}

// MaxSegmentSlots returns the largest slot occupancy of any segment best
// fit emits for packet sizes in [minSize, maxSize]. This is the
// one-direction component of the paper's per-flow worst segment
// transmission time xi_i.
func MaxSegmentSlots(minSize, maxSize int, allowed baseband.TypeSet) (int, error) {
	if minSize <= 0 || minSize > maxSize {
		return 0, ErrBadRange
	}
	maxSlots := 0
	var buf Plan
	for size := minSize; size <= maxSize; size++ {
		plan, err := AppendBestFit(buf[:0], size, allowed)
		if err != nil {
			return 0, err
		}
		buf = plan
		for _, s := range plan {
			if s.Type.Slots() > maxSlots {
				maxSlots = s.Type.Slots()
			}
		}
	}
	return maxSlots, nil
}
