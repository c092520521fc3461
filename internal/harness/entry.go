package harness

import (
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"slices"
	"time"

	"bluegs/internal/admission"
	"bluegs/internal/baseband"
	"bluegs/internal/gs"
	"bluegs/internal/piconet"
	"bluegs/internal/scenario"
	"bluegs/internal/stats"
	"bluegs/internal/tspec"
)

// The payload of a cache entry is a cacheRecord written field by field,
// in declaration order, with no type information: both ends compile the
// layout in. The primitive forms are
//
//	int, int64, Duration   zigzag varint (minimal)
//	uint64, TypeSet        uvarint (minimal; a TypeSet fits 32 bits)
//	float64                its 8 raw bits, little-endian
//	string                 uvarint length, then the bytes
//	bool                   one byte, 0 or 1
//	slice                  uvarint count, then the elements; a count of
//	                       0 decodes to nil
//	map[SlaveID]float64    presence byte (0 nil, 1 present), uvarint
//	                       count, then (key, value) pairs with keys
//	                       strictly ascending
//	[]*PlannedFlow         a slice of the pointed-to values; a nil element
//	                       is an encode error
//	*stats.DurationStats   presence byte, then a uvarint length and the
//	                       stats package's flat encoding
//
// Sorted map keys make an entry a pure function of the result: encoding
// one result twice gives the same bytes. The decoder accepts only what
// the encoder writes — it refuses trailing bytes, non-minimal varints,
// bool and presence bytes out of range, and map keys out of order —
// so every accepted payload re-encodes to itself. It checks each count
// against the bytes that remain before it allocates: entries also
// arrive off the network in /complete.

var (
	errEntryTruncated = errors.New("truncated record")
	errEntryMalformed = errors.New("malformed record")
)

// The narrowest encodings of the repeated rows: a zero value writes every
// field at its minimum width. The decoder refuses a count of rows the
// remaining bytes cannot hold at these widths, which bounds what a forged
// count can make it allocate.
var (
	minAdmission = zeroWidth(func(w *entryWriter) { w.admission(&scenario.AdmissionRecord{}) })
	minPiconet   = zeroWidth(func(w *entryWriter) { w.piconet(&scenario.PiconetResult{}) })
	minFlow      = zeroWidth(func(w *entryWriter) { w.flow(&scenario.FlowResult{}) })
	minPlanned   = zeroWidth(func(w *entryWriter) { w.planned(&admission.PlannedFlow{}) })
	minRoute     = zeroWidth(func(w *entryWriter) { w.route(&scenario.RouteResult{}) })
)

func zeroWidth(write func(*entryWriter)) int {
	var w entryWriter
	write(&w)
	return len(w.b)
}

// appendRecord appends the payload encoding of rec to b.
func appendRecord(b []byte, rec *cacheRecord) ([]byte, error) {
	w := entryWriter{b: b}
	w.str(rec.Key)
	w.dur(rec.Elapsed)
	w.uvarint(rec.Events)
	w.admissions(rec.Admissions)
	w.count(len(rec.Piconets))
	for i := range rec.Piconets {
		w.piconet(&rec.Piconets[i])
	}
	w.count(len(rec.Routes))
	for i := range rec.Routes {
		w.route(&rec.Routes[i])
	}
	return w.b, w.err
}

// decodeRecord decodes a whole payload.
func decodeRecord(payload []byte) (cacheRecord, error) {
	r := entryReader{b: payload}
	rec := cacheRecord{
		Key:        r.str(),
		Elapsed:    r.dur(),
		Events:     r.uvarint(),
		Admissions: r.admissions(),
	}
	if n := r.count(minPiconet); n > 0 {
		rec.Piconets = make([]scenario.PiconetResult, n)
		for i := range rec.Piconets {
			r.piconet(&rec.Piconets[i])
		}
	}
	if n := r.count(minRoute); n > 0 {
		rec.Routes = make([]scenario.RouteResult, n)
		for i := range rec.Routes {
			r.route(&rec.Routes[i])
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.err = errors.New("trailing bytes after record")
	}
	if r.err != nil {
		return cacheRecord{}, r.err
	}
	return rec, nil
}

// sizeHint estimates the payload size of rec: about three bytes a
// retained delay value plus a little per row.
func (rec *cacheRecord) sizeHint() int {
	n := 256 + 64*len(rec.Admissions)
	delay := func(d *stats.DurationStats) {
		n += 64
		if d != nil {
			n += 3 * int(d.Count())
		}
	}
	for i := range rec.Piconets {
		pr := &rec.Piconets[i]
		n += 64 * (len(pr.Admissions) + 2*len(pr.Admitted))
		for j := range pr.Flows {
			delay(pr.Flows[j].Delay)
		}
	}
	for i := range rec.Routes {
		delay(rec.Routes[i].Delay)
	}
	return n
}

// entryWriter appends the payload forms; the first error sticks.
type entryWriter struct {
	b   []byte
	err error
}

func (w *entryWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *entryWriter) uvarint(x uint64) { w.b = binary.AppendUvarint(w.b, x) }

func (w *entryWriter) varint(x int64) { w.b = binary.AppendVarint(w.b, x) }

func (w *entryWriter) int(x int) { w.varint(int64(x)) }

func (w *entryWriter) dur(d time.Duration) { w.varint(int64(d)) }

func (w *entryWriter) count(n int) { w.uvarint(uint64(n)) }

func (w *entryWriter) bool(v bool) {
	var c byte
	if v {
		c = 1
	}
	w.b = append(w.b, c)
}

func (w *entryWriter) float(x float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(x))
}

func (w *entryWriter) str(s string) {
	w.count(len(s))
	w.b = append(w.b, s...)
}

// present writes a presence byte and reports v.
func (w *entryWriter) present(v bool) bool {
	w.bool(v)
	return v
}

func (w *entryWriter) durs(ds []time.Duration) {
	w.count(len(ds))
	for _, d := range ds {
		w.dur(d)
	}
}

func (w *entryWriter) kbps(m map[piconet.SlaveID]float64) {
	if !w.present(m != nil) {
		return
	}
	keys := slices.Sorted(maps.Keys(m))
	w.count(len(keys))
	for _, k := range keys {
		w.int(int(k))
		w.float(m[k])
	}
}

func (w *entryWriter) delay(d *stats.DurationStats) {
	if !w.present(d != nil) {
		return
	}
	// The flat bytes go in first and their length is inserted in front
	// of them: one move within the buffer instead of a temporary copy.
	start := len(w.b)
	b, err := d.AppendBinary(w.b)
	if err != nil {
		w.fail(err)
		return
	}
	w.b = slices.Insert(b, start, binary.AppendUvarint(nil, uint64(len(b)-start))...)
}

func (w *entryWriter) admissions(as []scenario.AdmissionRecord) {
	w.count(len(as))
	for i := range as {
		w.admission(&as[i])
	}
}

func (w *entryWriter) admission(a *scenario.AdmissionRecord) {
	w.dur(a.At)
	w.str(a.Op)
	w.str(a.Piconet)
	w.int(int(a.Flow))
	w.int(int(a.Slave))
	w.bool(a.Accepted)
	w.dur(a.Bound)
	w.float(a.Rate)
	w.str(a.Reason)
	w.dur(a.Latency)
	w.str(a.Route)
	w.int(a.Hop)
}

func (w *entryWriter) piconet(pr *scenario.PiconetResult) {
	w.str(pr.Name)
	w.bool(pr.Removed)
	w.bool(pr.Crashed)
	w.count(len(pr.Flows))
	for i := range pr.Flows {
		w.flow(&pr.Flows[i])
	}
	w.kbps(pr.SlaveKbps)
	w.kbps(pr.SCOKbps)
	s := &pr.Slots
	for _, x := range [...]int64{s.GSData, s.GSOverhead, s.BEData, s.BEOverhead, s.Retransmit, s.SCO, s.Idle, s.Total} {
		w.varint(x)
	}
	w.uvarint(pr.GSPolls)
	w.uvarint(pr.BEPolls)
	w.uvarint(pr.Skipped)
	w.count(len(pr.Admitted))
	for _, p := range pr.Admitted {
		w.planned(p)
	}
	w.admissions(pr.Admissions)
	w.float(pr.Utilization)
}

func (w *entryWriter) flow(f *scenario.FlowResult) {
	w.int(int(f.ID))
	w.str(f.Piconet)
	w.str(f.Route)
	w.int(int(f.Slave))
	w.int(int(f.Dir))
	w.int(int(f.Class))
	w.uvarint(f.Offered)
	w.uvarint(f.Delivered)
	w.uvarint(f.Lost)
	w.float(f.Kbps)
	w.dur(f.DelayMax)
	w.dur(f.DelayMean)
	w.dur(f.DelayP99)
	w.dur(f.DelayJitter)
	w.str(f.Fate)
	w.dur(f.Bound)
	w.float(f.Rate)
	w.delay(f.Delay)
}

func (w *entryWriter) planned(p *admission.PlannedFlow) {
	if p == nil {
		w.fail(errors.New("nil admitted flow"))
		return
	}
	q := &p.Request
	w.int(int(q.ID))
	w.int(int(q.Slave))
	w.int(int(q.Dir))
	w.float(q.Spec.PeakRate)
	w.float(q.Spec.TokenRate)
	w.float(q.Spec.BucketSize)
	w.int(q.Spec.MinPolicedUnit)
	w.int(q.Spec.MaxTransferUnit)
	w.float(q.Rate)
	w.uvarint(uint64(q.Allowed))
	w.float(q.SuccessScale)
	w.float(p.Params.EtaMin)
	w.int(p.Params.WorstSize)
	w.int(p.Params.MaxSegmentSlots)
	w.dur(p.Params.Interval)
	w.dur(p.Params.Exchange)
	w.int(p.Priority)
	w.dur(p.X)
	w.float(p.Terms.C)
	w.dur(p.Terms.D)
	w.dur(p.Bound)
	w.int(int(p.Counterpart))
	w.bool(p.Primary)
}

func (w *entryWriter) route(rr *scenario.RouteResult) {
	w.int(int(rr.ID))
	w.str(rr.Name)
	w.count(len(rr.Path))
	for _, p := range rr.Path {
		w.str(p)
	}
	w.dur(rr.Target)
	w.uvarint(rr.Offered)
	w.uvarint(rr.Delivered)
	w.uvarint(rr.Lost)
	w.float(rr.Kbps)
	w.dur(rr.DelayMax)
	w.dur(rr.DelayMean)
	w.dur(rr.DelayP99)
	w.durs(rr.HopBounds)
	w.count(len(rr.HopRates))
	for _, x := range rr.HopRates {
		w.float(x)
	}
	w.int(rr.PeakQueue)
	w.str(rr.Fate)
	w.delay(rr.Delay)
}

// entryReader decodes the payload forms. The first failure sticks in err
// and every later read returns zero, so a struct is read as one composite
// literal (Go evaluates its calls left to right) and checked once.
type entryReader struct {
	b   []byte
	err error
}

func (r *entryReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *entryReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b)
	if r.varintOK(n) {
		r.b = r.b[n:]
	}
	return x
}

func (r *entryReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.b)
	if r.varintOK(n) {
		r.b = r.b[n:]
	}
	return x
}

// varintOK vets a varint read of n bytes: n <= 0 is a short or
// overflowing varint, and a multi-byte varint ending in a zero byte is a
// non-minimal encoding the writer never produces.
func (r *entryReader) varintOK(n int) bool {
	switch {
	case n == 0:
		r.fail(errEntryTruncated)
	case n < 0 || (n > 1 && r.b[n-1] == 0):
		r.fail(errEntryMalformed)
	default:
		return true
	}
	return false
}

func (r *entryReader) int() int {
	x := r.varint()
	if int64(int(x)) != x {
		r.fail(errEntryMalformed)
		return 0
	}
	return int(x)
}

func (r *entryReader) dur() time.Duration { return time.Duration(r.varint()) }

func (r *entryReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail(errEntryTruncated)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *entryReader) bool() bool {
	switch r.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(errEntryMalformed)
	return false
}

func (r *entryReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail(errEntryTruncated)
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return x
}

// count reads an element count and refuses one the remaining bytes
// cannot hold at width bytes an element.
func (r *entryReader) count(width int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/width) {
		r.fail(errEntryTruncated)
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte string, aliasing the payload.
func (r *entryReader) bytes() []byte {
	n := r.count(1)
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

func (r *entryReader) str() string { return string(r.bytes()) }

func (r *entryReader) durs() []time.Duration {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = r.dur()
	}
	return out
}

func (r *entryReader) kbps() map[piconet.SlaveID]float64 {
	if !r.bool() {
		return nil
	}
	n := r.count(1 + 8)
	m := make(map[piconet.SlaveID]float64, n)
	var prev piconet.SlaveID
	for i := 0; i < n; i++ {
		k := piconet.SlaveID(r.int())
		if i > 0 && k <= prev {
			r.fail(errEntryMalformed)
		}
		prev = k
		m[k] = r.float()
	}
	return m
}

// delay reads an optional delay statistic into d (a slot of a slab the
// caller allocated for the enclosing slice, or nil for a fresh one) and
// returns it, or nil when absent.
func (r *entryReader) delay(d *stats.DurationStats) *stats.DurationStats {
	if !r.bool() {
		return nil
	}
	flat := r.bytes()
	if r.err != nil {
		return nil
	}
	if d == nil {
		d = new(stats.DurationStats)
	}
	if err := d.UnmarshalBinary(flat); err != nil {
		r.fail(err)
		return nil
	}
	return d
}

func (r *entryReader) admissions() []scenario.AdmissionRecord {
	n := r.count(minAdmission)
	if n == 0 {
		return nil
	}
	out := make([]scenario.AdmissionRecord, n)
	for i := range out {
		out[i] = scenario.AdmissionRecord{
			At:       r.dur(),
			Op:       r.str(),
			Piconet:  r.str(),
			Flow:     piconet.FlowID(r.int()),
			Slave:    piconet.SlaveID(r.int()),
			Accepted: r.bool(),
			Bound:    r.dur(),
			Rate:     r.float(),
			Reason:   r.str(),
			Latency:  r.dur(),
			Route:    r.str(),
			Hop:      r.int(),
		}
	}
	return out
}

func (r *entryReader) piconet(pr *scenario.PiconetResult) {
	pr.Name = r.str()
	pr.Removed = r.bool()
	pr.Crashed = r.bool()
	if n := r.count(minFlow); n > 0 {
		pr.Flows = make([]scenario.FlowResult, n)
		delays := make([]stats.DurationStats, n)
		for i := range pr.Flows {
			r.flow(&pr.Flows[i], &delays[i])
		}
	}
	pr.SlaveKbps = r.kbps()
	pr.SCOKbps = r.kbps()
	pr.Slots = piconet.SlotAccount{
		GSData:     r.varint(),
		GSOverhead: r.varint(),
		BEData:     r.varint(),
		BEOverhead: r.varint(),
		Retransmit: r.varint(),
		SCO:        r.varint(),
		Idle:       r.varint(),
		Total:      r.varint(),
	}
	pr.GSPolls = r.uvarint()
	pr.BEPolls = r.uvarint()
	pr.Skipped = r.uvarint()
	if n := r.count(minPlanned); n > 0 {
		pr.Admitted = make([]*admission.PlannedFlow, n)
		slab := make([]admission.PlannedFlow, n)
		for i := range slab {
			r.planned(&slab[i])
			pr.Admitted[i] = &slab[i]
		}
	}
	pr.Admissions = r.admissions()
	pr.Utilization = r.float()
}

func (r *entryReader) flow(f *scenario.FlowResult, d *stats.DurationStats) {
	*f = scenario.FlowResult{
		ID:          piconet.FlowID(r.int()),
		Piconet:     r.str(),
		Route:       r.str(),
		Slave:       piconet.SlaveID(r.int()),
		Dir:         piconet.Direction(r.int()),
		Class:       piconet.Class(r.int()),
		Offered:     r.uvarint(),
		Delivered:   r.uvarint(),
		Lost:        r.uvarint(),
		Kbps:        r.float(),
		DelayMax:    r.dur(),
		DelayMean:   r.dur(),
		DelayP99:    r.dur(),
		DelayJitter: r.dur(),
		Fate:        r.str(),
		Bound:       r.dur(),
		Rate:        r.float(),
		Delay:       r.delay(d),
	}
}

func (r *entryReader) planned(p *admission.PlannedFlow) {
	req := admission.Request{
		ID:    piconet.FlowID(r.int()),
		Slave: piconet.SlaveID(r.int()),
		Dir:   piconet.Direction(r.int()),
		Spec: tspec.TSpec{
			PeakRate:        r.float(),
			TokenRate:       r.float(),
			BucketSize:      r.float(),
			MinPolicedUnit:  r.int(),
			MaxTransferUnit: r.int(),
		},
		Rate: r.float(),
	}
	if allowed := r.uvarint(); allowed <= math.MaxUint32 {
		req.Allowed = baseband.TypeSet(allowed)
	} else {
		r.fail(errEntryMalformed)
	}
	req.SuccessScale = r.float()
	*p = admission.PlannedFlow{
		Request: req,
		Params: admission.Params{
			EtaMin:          r.float(),
			WorstSize:       r.int(),
			MaxSegmentSlots: r.int(),
			Interval:        r.dur(),
			Exchange:        r.dur(),
		},
		Priority:    r.int(),
		X:           r.dur(),
		Terms:       gs.ErrorTerms{C: r.float(), D: r.dur()},
		Bound:       r.dur(),
		Counterpart: piconet.FlowID(r.int()),
		Primary:     r.bool(),
	}
}

func (r *entryReader) route(rr *scenario.RouteResult) {
	rr.ID = piconet.FlowID(r.int())
	rr.Name = r.str()
	if n := r.count(1); n > 0 {
		rr.Path = make([]string, n)
		for i := range rr.Path {
			rr.Path[i] = r.str()
		}
	}
	rr.Target = r.dur()
	rr.Offered = r.uvarint()
	rr.Delivered = r.uvarint()
	rr.Lost = r.uvarint()
	rr.Kbps = r.float()
	rr.DelayMax = r.dur()
	rr.DelayMean = r.dur()
	rr.DelayP99 = r.dur()
	rr.HopBounds = r.durs()
	if n := r.count(8); n > 0 {
		rr.HopRates = make([]float64, n)
		for i := range rr.HopRates {
			rr.HopRates[i] = r.float()
		}
	}
	rr.PeakQueue = r.int()
	rr.Fate = r.str()
	rr.Delay = r.delay(nil)
}
