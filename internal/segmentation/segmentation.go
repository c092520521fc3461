// Package segmentation implements the policies that break higher-layer
// packets into baseband packets, and the derived quantities the paper's
// analysis needs: the number of segments n of a packet, the minimum poll
// efficiency eta_min over a flow's packet-size range (paper eq. 4), and the
// worst-case segment air time.
//
// The paper's evaluation uses the best-fit policy: "the largest available
// baseband packet is used, unless the remainder of the higher layer packet
// fits in a smaller baseband packet."
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
	ErrNilPolicy  = errors.New("segmentation: nil policy")
	ErrEmptySeg   = errors.New("segmentation: policy produced an empty plan")
	ErrShortPlan  = errors.New("segmentation: plan does not cover the packet")
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

// Policy decides how a higher-layer packet of a given size is segmented into
// baseband packets drawn from an allowed type set.
type Policy interface {
	// Segment returns the ordered plan for a packet of size bytes.
	Segment(size int, allowed baseband.TypeSet) (Plan, error)
	// Name identifies the policy in reports.
	Name() string
}

// Appender is the allocation-free fast path a Policy may additionally
// implement: SegmentAppend writes the plan into dst's backing array
// (extending it only when capacity runs out) instead of allocating a fresh
// Plan per packet. The piconet's packet pool uses it to recycle plan storage
// across arrivals. Both built-in policies implement it.
type Appender interface {
	SegmentAppend(dst Plan, size int, allowed baseband.TypeSet) (Plan, error)
}

// BestFit is the paper's policy: each segment uses the largest allowed
// packet, unless the remaining bytes fit into a smaller allowed packet, in
// which case the smallest fitting packet is used. The zero value is ready to
// use.
type BestFit struct{}

var (
	_ Policy   = BestFit{}
	_ Appender = BestFit{}
)

// Name implements Policy.
func (BestFit) Name() string { return "best-fit" }

// Segment implements Policy.
func (p BestFit) Segment(size int, allowed baseband.TypeSet) (Plan, error) {
	return p.SegmentAppend(nil, size, allowed)
}

// SegmentAppend implements Appender.
func (BestFit) SegmentAppend(dst Plan, size int, allowed baseband.TypeSet) (Plan, error) {
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

// GreedyLargest always uses the largest allowed packet for every segment,
// including the last. It is a deliberately naive contrast policy for the
// ablation benches (it wastes multi-slot packets on small remainders).
type GreedyLargest struct{}

var (
	_ Policy   = GreedyLargest{}
	_ Appender = GreedyLargest{}
)

// Name implements Policy.
func (GreedyLargest) Name() string { return "greedy-largest" }

// Segment implements Policy.
func (p GreedyLargest) Segment(size int, allowed baseband.TypeSet) (Plan, error) {
	return p.SegmentAppend(nil, size, allowed)
}

// SegmentAppend implements Appender.
func (GreedyLargest) SegmentAppend(dst Plan, size int, allowed baseband.TypeSet) (Plan, error) {
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
		carry := largest.Payload()
		if carry > remaining {
			carry = remaining
		}
		plan = append(plan, Segment{Type: largest, Bytes: carry})
		remaining -= carry
	}
	return plan, nil
}

// Count returns the number of segments the policy produces for a packet of
// the given size.
func Count(p Policy, size int, allowed baseband.TypeSet) (int, error) {
	if p == nil {
		return 0, ErrNilPolicy
	}
	plan, err := p.Segment(size, allowed)
	if err != nil {
		return 0, err
	}
	return checkPlan(plan, size)
}

// checkPlan returns the segment count of a plan for a packet of size
// bytes, or an error when the plan is empty or does not carry the packet.
func checkPlan(plan Plan, size int) (int, error) {
	if len(plan) == 0 {
		return 0, ErrEmptySeg
	}
	if plan.TotalBytes() != size {
		return 0, fmt.Errorf("%w: plan carries %d of %d bytes", ErrShortPlan, plan.TotalBytes(), size)
	}
	return len(plan), nil
}

// segmentInto plans a packet into buf's storage when the policy is an
// Appender, so a sweep over packet sizes reuses one plan buffer.
func segmentInto(p Policy, buf Plan, size int, allowed baseband.TypeSet) (Plan, error) {
	if ap, ok := p.(Appender); ok {
		return ap.SegmentAppend(buf[:0], size, allowed)
	}
	return p.Segment(size, allowed)
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
func MinPollEfficiency(p Policy, minSize, maxSize int, allowed baseband.TypeSet) (Efficiency, error) {
	if p == nil {
		return Efficiency{}, ErrNilPolicy
	}
	if minSize <= 0 || minSize > maxSize {
		return Efficiency{}, ErrBadRange
	}
	best := Efficiency{}
	found := false
	var buf Plan
	for size := minSize; size <= maxSize; size++ {
		plan, err := segmentInto(p, buf, size, allowed)
		if err != nil {
			return Efficiency{}, err
		}
		buf = plan
		n, err := checkPlan(plan, size)
		if err != nil {
			return Efficiency{}, err
		}
		eta := float64(size) / float64(n)
		if !found || eta < best.BytesPerPoll {
			best = Efficiency{Size: size, Segments: n, BytesPerPoll: eta}
			found = true
		}
	}
	return best, nil
}

// MaxSegmentSlots returns the largest slot occupancy of any segment the
// policy can emit for packet sizes in [minSize, maxSize]. This is the
// one-direction component of the paper's per-flow worst segment
// transmission time xi_i.
func MaxSegmentSlots(p Policy, minSize, maxSize int, allowed baseband.TypeSet) (int, error) {
	if p == nil {
		return 0, ErrNilPolicy
	}
	if minSize <= 0 || minSize > maxSize {
		return 0, ErrBadRange
	}
	maxSlots := 0
	var buf Plan
	for size := minSize; size <= maxSize; size++ {
		plan, err := segmentInto(p, buf, size, allowed)
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
	if maxSlots == 0 {
		return 0, ErrEmptySeg
	}
	return maxSlots, nil
}
