package segmentation

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bluegs/internal/baseband"
)

func TestBestFitPaperExamples(t *testing.T) {
	// Allowed types DH1 (27) and DH3 (183), as in the paper's evaluation.
	tests := []struct {
		name string
		size int
		want []baseband.PacketType
	}{
		{"tiny fits DH1", 10, []baseband.PacketType{baseband.TypeDH1}},
		{"exactly DH1", 27, []baseband.PacketType{baseband.TypeDH1}},
		{"28 needs DH3", 28, []baseband.PacketType{baseband.TypeDH3}},
		{"GS min packet 144 one DH3", 144, []baseband.PacketType{baseband.TypeDH3}},
		{"GS max packet 176 one DH3", 176, []baseband.PacketType{baseband.TypeDH3}},
		{"exactly DH3", 183, []baseband.PacketType{baseband.TypeDH3}},
		{"remainder fits DH1", 200, []baseband.PacketType{baseband.TypeDH3, baseband.TypeDH1}},
		{"remainder needs DH3", 300, []baseband.PacketType{baseband.TypeDH3, baseband.TypeDH3}},
		{"two DH3 exactly", 366, []baseband.PacketType{baseband.TypeDH3, baseband.TypeDH3}},
		{"two DH3 plus DH1", 380, []baseband.PacketType{baseband.TypeDH3, baseband.TypeDH3, baseband.TypeDH1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			plan, err := BestFit(tt.size, baseband.PaperTypes)
			if err != nil {
				t.Fatalf("Segment(%d): %v", tt.size, err)
			}
			if len(plan) != len(tt.want) {
				t.Fatalf("Segment(%d) = %v, want types %v", tt.size, plan, tt.want)
			}
			for i, seg := range plan {
				if seg.Type != tt.want[i] {
					t.Fatalf("Segment(%d)[%d] = %v, want %v", tt.size, i, seg.Type, tt.want[i])
				}
			}
			if got := plan.TotalBytes(); got != tt.size {
				t.Fatalf("plan carries %d bytes, want %d", got, tt.size)
			}
		})
	}
}

func TestBestFitErrors(t *testing.T) {
	if _, err := BestFit(0, baseband.PaperTypes); !errors.Is(err, ErrBadSize) {
		t.Fatalf("size 0: err = %v", err)
	}
	if _, err := BestFit(-5, baseband.PaperTypes); !errors.Is(err, ErrBadSize) {
		t.Fatalf("negative size: err = %v", err)
	}
	scoOnly := baseband.NewTypeSet(baseband.TypeHV3)
	if _, err := BestFit(10, scoOnly); !errors.Is(err, ErrNoACLTypes) {
		t.Fatalf("SCO-only set: err = %v", err)
	}
	if _, err := BestFit(10, baseband.TypeSet(0)); !errors.Is(err, ErrNoACLTypes) {
		t.Fatalf("empty set: err = %v", err)
	}
}

func TestPlanSlotsAndString(t *testing.T) {
	plan := Plan{
		{Type: baseband.TypeDH3, Bytes: 183},
		{Type: baseband.TypeDH1, Bytes: 17},
	}
	if got := plan.Slots(); got != 4 {
		t.Fatalf("Slots() = %d, want 4", got)
	}
	if got := plan.String(); got != "[DH3:183 DH1:17]" {
		t.Fatalf("String() = %q", got)
	}
}

func TestMinPollEfficiencyPaper(t *testing.T) {
	// Paper §4.1: over packet sizes 144..176 with DH1+DH3 and best-fit,
	// every packet is one DH3, so eta_min = 144 bytes at size 144.
	eff, err := MinPollEfficiency(144, 176, baseband.PaperTypes)
	if err != nil {
		t.Fatalf("MinPollEfficiency: %v", err)
	}
	if eff.Size != 144 || eff.Segments != 1 || eff.BytesPerPoll != 144 {
		t.Fatalf("eta_min = %+v, want {144, 1, 144}", eff)
	}
}

func TestMinPollEfficiencyBoundaryDrop(t *testing.T) {
	// Around a segment-count boundary the efficiency drops: size 183 is
	// one DH3 (eta 183), size 184 is DH3+DH1 (eta 92). The minimum over
	// [150, 250] must be at 184.
	eff, err := MinPollEfficiency(150, 250, baseband.PaperTypes)
	if err != nil {
		t.Fatalf("MinPollEfficiency: %v", err)
	}
	if eff.Size != 184 || eff.Segments != 2 {
		t.Fatalf("eta_min = %+v, want worst at size 184 with 2 segments", eff)
	}
	if math.Abs(eff.BytesPerPoll-92) > 1e-9 {
		t.Fatalf("eta_min = %v, want 92", eff.BytesPerPoll)
	}
}

func TestMinPollEfficiencyErrors(t *testing.T) {
	if _, err := MinPollEfficiency(0, 10, baseband.PaperTypes); !errors.Is(err, ErrBadRange) {
		t.Fatalf("min 0: err = %v", err)
	}
	if _, err := MinPollEfficiency(20, 10, baseband.PaperTypes); !errors.Is(err, ErrBadRange) {
		t.Fatalf("inverted range: err = %v", err)
	}
}

func TestMaxSegmentSlots(t *testing.T) {
	// GS flows 144..176 with DH1+DH3: every segment is a DH3 -> 3 slots.
	slots, err := MaxSegmentSlots(144, 176, baseband.PaperTypes)
	if err != nil {
		t.Fatalf("MaxSegmentSlots: %v", err)
	}
	if slots != 3 {
		t.Fatalf("MaxSegmentSlots = %d, want 3", slots)
	}
	// Packets up to 27 bytes only ever use DH1 -> 1 slot.
	slots, err = MaxSegmentSlots(1, 27, baseband.PaperTypes)
	if err != nil {
		t.Fatalf("MaxSegmentSlots: %v", err)
	}
	if slots != 1 {
		t.Fatalf("MaxSegmentSlots = %d, want 1", slots)
	}
}

// TestPropertyPlansCoverExactly: a best-fit plan carries exactly the
// packet size, every segment respects its type capacity, and only allowed
// ACL types appear.
func TestPropertyPlansCoverExactly(t *testing.T) {
	f := func(sizeRaw uint16, setBits uint8) bool {
		size := 1 + int(sizeRaw%2000)
		sets := []baseband.TypeSet{
			baseband.PaperTypes,
			baseband.ACLAll,
			baseband.ACLHighRate,
			baseband.ACLMediumRate,
			baseband.ACL1Slot,
		}
		allowed := sets[int(setBits)%len(sets)]
		plan, err := BestFit(size, allowed)
		if err != nil {
			return false
		}
		if plan.TotalBytes() != size {
			return false
		}
		for _, seg := range plan {
			if !allowed.Contains(seg.Type) || !seg.Type.IsACL() {
				return false
			}
			if seg.Bytes <= 0 || seg.Bytes > seg.Type.Payload() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBestFitNeverWorseThanGreedy: best fit never uses more slots
// than the naive plan that sends every segment, the last included, in the
// largest allowed packet (it uses strictly fewer on small remainders).
func TestPropertyBestFitNeverWorseThanGreedy(t *testing.T) {
	largest, _ := baseband.ACLAll.LargestACL()
	f := func(sizeRaw uint16) bool {
		size := 1 + int(sizeRaw%3000)
		bf, err := BestFit(size, baseband.ACLAll)
		if err != nil {
			return false
		}
		segments := (size + largest.Payload() - 1) / largest.Payload()
		return bf.Slots() <= segments*largest.Slots()
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(37))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEfficiencyIsMinimum: eta_min is <= eta(L) for every L in the
// range (verifying the scan really finds the minimum of eq. 4).
func TestPropertyEfficiencyIsMinimum(t *testing.T) {
	f := func(a, b uint8) bool {
		lo, hi := 1+int(a), 1+int(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		eff, err := MinPollEfficiency(lo, hi, baseband.PaperTypes)
		if err != nil {
			return false
		}
		for size := lo; size <= hi; size++ {
			plan, err := BestFit(size, baseband.PaperTypes)
			if err != nil {
				return false
			}
			if float64(size)/float64(len(plan)) < eff.BytesPerPoll-1e-9 {
				return false
			}
		}
		return eff.Size >= lo && eff.Size <= hi
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBestFitSegment(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BestFit(1500, baseband.ACLAll); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinPollEfficiency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MinPollEfficiency(144, 176, baseband.PaperTypes); err != nil {
			b.Fatal(err)
		}
	}
}
