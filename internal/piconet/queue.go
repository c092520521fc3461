package piconet

import (
	"fmt"
	"sort"

	"bluegs/internal/segmentation"
	"bluegs/internal/sim"
	"bluegs/internal/stats"
)

// hlPacket is a higher-layer packet in a flow queue, carrying its
// segmentation plan and transmission progress. Packets are recycled through
// the piconet's pktFree pool between arrivals, reusing the plan's backing
// array.
type hlPacket struct {
	id      uint64
	size    int
	arrival sim.Time
	plan    segmentation.Plan
	// nextSeg indexes the first not-yet-delivered segment.
	nextSeg int
	// remaining counts the payload bytes of segments plan[nextSeg:],
	// maintained incrementally so remainingBytes is O(1).
	remaining int
	// corrupt marks a packet that lost a segment on air with ARQ
	// disabled; it completes its plan but is not counted as delivered.
	corrupt bool
}

func (pkt *hlPacket) remainingBytes() int { return pkt.remaining }

// consumeSegment advances past the current head segment, keeping the
// remaining-byte counter in step with nextSeg.
func (pkt *hlPacket) consumeSegment() {
	pkt.remaining -= pkt.plan[pkt.nextSeg].Bytes
	pkt.nextSeg++
}

func (pkt *hlPacket) done() bool { return pkt.nextSeg >= len(pkt.plan) }

// allocPacket pops a recycled packet off the pool, or makes a fresh one.
func (p *Piconet) allocPacket() *hlPacket {
	if n := len(p.pktFree); n > 0 {
		pkt := p.pktFree[n-1]
		p.pktFree = p.pktFree[:n-1]
		return pkt
	}
	return &hlPacket{}
}

// freePacket returns a completed packet to the pool. The plan slice keeps
// its backing array for the next arrival's segmentation.
func (p *Piconet) freePacket(pkt *hlPacket) {
	pkt.plan = pkt.plan[:0]
	pkt.nextSeg = 0
	pkt.remaining = 0
	pkt.corrupt = false
	p.pktFree = append(p.pktFree, pkt)
}

// flowState is the runtime state of one flow: its queue (held at the master
// for down flows, at the slave for up flows) and its measurement hooks.
type flowState struct {
	cfg FlowConfig
	// pn is the owning piconet (for the packet pool).
	pn *Piconet
	// queue[qhead:] holds pending packets in arrival order; the head may
	// be partially transmitted. Pops advance qhead and compact lazily
	// (once the dead prefix reaches half the slice), so head removal is
	// amortized O(1) and the backing array is reused, even under
	// sustained overload with deep backlogs.
	queue []*hlPacket
	qhead int

	// retired marks a flow taken out of service mid-run (see
	// Piconet.RetireFlow): it keeps its statistics but accepts no packets
	// and no polls.
	retired bool
	// suspended marks a flow taken out of service reversibly by the link
	// supervision machinery (see Piconet.SuspendFlow); ResumeFlow clears
	// it.
	suspended bool

	delay     *stats.DurationStats
	delivered *stats.Meter
	offered   *stats.Meter
	lost      *stats.Meter

	// wakeDown is the flow's pooled down-arrival notification: built once
	// on first use and rescheduled for every future-dated down arrival,
	// instead of allocating a fresh closure per pre-enqueued packet. It
	// reads the arrival instant off the kernel clock (the event fires
	// exactly at the arrival time), so one closure serves every packet.
	wakeDown func()
}

func newFlowState(pn *Piconet, cfg FlowConfig) *flowState {
	return &flowState{
		cfg:       cfg,
		pn:        pn,
		delay:     new(stats.DurationStats),
		delivered: &stats.Meter{},
		offered:   &stats.Meter{},
		lost:      &stats.Meter{},
	}
}

// qlen returns the number of pending packets.
func (fs *flowState) qlen() int { return len(fs.queue) - fs.qhead }

// qat returns the i-th pending packet (0 is the head).
func (fs *flowState) qat(i int) *hlPacket { return fs.queue[fs.qhead+i] }

// qpush appends a packet to the tail.
func (fs *flowState) qpush(pkt *hlPacket) { fs.queue = append(fs.queue, pkt) }

// qpop removes and returns the head packet.
func (fs *flowState) qpop() *hlPacket {
	pkt := fs.queue[fs.qhead]
	fs.queue[fs.qhead] = nil
	fs.qhead++
	if fs.qhead*2 >= len(fs.queue) {
		// The dead prefix reached half the slice: compact. Each
		// compaction moves at most as many elements as the pops that
		// earned it, so pops stay amortized O(1).
		n := copy(fs.queue, fs.queue[fs.qhead:])
		for i := n; i < len(fs.queue); i++ {
			fs.queue[i] = nil
		}
		fs.queue = fs.queue[:n]
		fs.qhead = 0
	}
	return pkt
}

func (fs *flowState) queuedBytes() int {
	total := 0
	for i := 0; i < fs.qlen(); i++ {
		total += fs.qat(i).remainingBytes()
	}
	return total
}

// availableLen counts the queued packets that have arrived by cutoff.
// The queue is arrival-ordered, so the count is a prefix length: a
// batched source's pre-enqueued future arrivals sit at the tail and
// stay invisible until their stamp passes. The whole-queue and
// empty-prefix cases are answered without the binary search — unbatched
// queues never hold future arrivals, so they always take the first
// fast path.
func (fs *flowState) availableLen(cutoff sim.Time) int {
	n := fs.qlen()
	if n == 0 || fs.qat(n-1).arrival <= cutoff {
		return n
	}
	if fs.qat(0).arrival > cutoff {
		return 0
	}
	return sort.Search(n, func(i int) bool { return fs.qat(i).arrival > cutoff })
}

// availableBytes sums the remaining payload of the packets that have
// arrived by cutoff.
func (fs *flowState) availableBytes(cutoff sim.Time) int {
	total := 0
	for i, n := 0, fs.availableLen(cutoff); i < n; i++ {
		total += fs.qat(i).remainingBytes()
	}
	return total
}

// headAvailable reports whether the queue head exists and arrived at or
// before the cutoff (the paper requires data to be available when the master
// starts its transmission).
func (fs *flowState) headAvailable(cutoff sim.Time) bool {
	return fs.qlen() > 0 && fs.qat(0).arrival <= cutoff
}

// headPacket returns the available head packet, or nil.
func (fs *flowState) headPacket(cutoff sim.Time) *hlPacket {
	if !fs.headAvailable(cutoff) {
		return nil
	}
	return fs.qat(0)
}

// moreAfterHeadSegment reports whether, after the head's next segment is
// served, further segments remain available at the cutoff (the slave's
// more-data flag).
func (fs *flowState) moreAfterHeadSegment(cutoff sim.Time) bool {
	if !fs.headAvailable(cutoff) {
		return false
	}
	head := fs.qat(0)
	if head.nextSeg+1 < len(head.plan) {
		return true
	}
	// Head would complete; is another packet available?
	return fs.qlen() > 1 && fs.qat(1).arrival <= cutoff
}

// qpopTail removes and returns the tail packet.
func (fs *flowState) qpopTail() *hlPacket {
	last := len(fs.queue) - 1
	pkt := fs.queue[last]
	fs.queue[last] = nil
	fs.queue = fs.queue[:last]
	return pkt
}

// popCompleted removes the head if fully delivered and recycles it.
func (fs *flowState) popCompleted() {
	if fs.qlen() == 0 || !fs.qat(0).done() {
		return
	}
	fs.pn.freePacket(fs.qpop())
}

// EnqueuePacket inserts a higher-layer packet of the given size into the
// flow's queue at the current simulation time, segmenting it with the
// flow's policy. Traffic sources call this; for down flows the scheduler is
// notified and the master wakes up if idle.
func (p *Piconet) EnqueuePacket(flow FlowID, size int) error {
	return p.EnqueuePacketAt(flow, size, p.simulator.Now())
}

// EnqueuePacketAt is EnqueuePacket with an explicit arrival time at or
// after now. Batched traffic sources use it to pre-enqueue a whole burst
// of future arrivals in one kernel event: availability is gated on the
// packet's arrival stamp (headAvailable/moreAfterHeadSegment compare
// against the poll cutoff), so a future-dated packet can never be served
// — or flagged as more-data — before it "exists". Up-flow bursts need no
// further events at all; a future down-flow arrival schedules its own
// scheduler notification at the arrival instant, preserving the
// per-packet wake semantics exactly. Arrivals must be enqueued in
// non-decreasing order per flow (queues are FIFO by arrival).
func (p *Piconet) EnqueuePacketAt(flow FlowID, size int, at sim.Time) error {
	fs, ok := p.flows[flow]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownFlow, flow)
	}
	if fs.retired {
		return fmt.Errorf("%w: %d", ErrFlowRetired, flow)
	}
	if fs.suspended {
		return fmt.Errorf("%w: %d", ErrFlowSuspended, flow)
	}
	if size <= 0 {
		return ErrPacketTooSmall
	}
	now := p.simulator.Now()
	if at < now {
		return fmt.Errorf("%w: arrival %v before now %v", ErrInvalidFlow, at, now)
	}
	if n := fs.qlen(); n > 0 && fs.qat(n-1).arrival > at {
		return fmt.Errorf("%w: arrival %v before queued tail", ErrInvalidFlow, at)
	}
	pkt := p.allocPacket()
	var err error
	pkt.plan, err = segmentation.AppendBestFit(pkt.plan[:0], size, fs.cfg.Allowed)
	if err != nil {
		p.freePacket(pkt)
		return fmt.Errorf("%w: %v", ErrSegmentFailure, err)
	}
	p.nextID++
	pkt.id = p.nextID
	pkt.size = size
	pkt.arrival = at
	pkt.nextSeg = 0
	pkt.remaining = pkt.plan.TotalBytes()
	pkt.corrupt = false
	fs.qpush(pkt)
	fs.offered.Add(size)
	if fs.cfg.Dir == Down {
		if at == now {
			if p.started {
				p.scheduler.OnDownArrival(flow, now)
				p.wakeIfIdle()
			}
		} else {
			// The master must not learn of — or react to — the packet
			// before it arrives.
			if fs.wakeDown == nil {
				fs.wakeDown = func() {
					if p.started && !p.stopped && !fs.retired && !fs.suspended {
						p.scheduler.OnDownArrival(flow, p.simulator.Now())
						p.wakeIfIdle()
					}
				}
			}
			p.simulator.Schedule(at, fs.wakeDown)
		}
	}
	return nil
}
