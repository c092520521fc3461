package baseband

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"bluegs/internal/sim"
)

func TestSlotTiming(t *testing.T) {
	if got := SlotDuration * SlotsPerSecond; got != time.Second {
		t.Fatalf("SlotDuration*SlotsPerSecond = %v, want 1s", got)
	}
}

// TestSlotGrainMatchesKernel pins the timer-wheel fast path's assumption:
// the kernel's wheel granularity is exactly the baseband slot, so every
// slot-aligned model event takes the O(1) wheel route.
func TestSlotGrainMatchesKernel(t *testing.T) {
	if sim.SlotGrain != SlotDuration {
		t.Fatalf("sim.SlotGrain = %v, baseband.SlotDuration = %v; the kernel wheel must match the slot grid",
			sim.SlotGrain, SlotDuration)
	}
}

func TestPacketProperties(t *testing.T) {
	tests := []struct {
		typ     PacketType
		name    string
		slots   int
		payload int
		acl     bool
		sco     bool
		fec     bool
	}{
		{TypeNULL, "NULL", 1, 0, false, false, false},
		{TypePOLL, "POLL", 1, 0, false, false, false},
		{TypeDM1, "DM1", 1, 17, true, false, true},
		{TypeDH1, "DH1", 1, 27, true, false, false},
		{TypeDM3, "DM3", 3, 121, true, false, true},
		{TypeDH3, "DH3", 3, 183, true, false, false},
		{TypeDM5, "DM5", 5, 224, true, false, true},
		{TypeDH5, "DH5", 5, 339, true, false, false},
		{TypeHV1, "HV1", 1, 10, false, true, true},
		{TypeHV2, "HV2", 1, 20, false, true, true},
		{TypeHV3, "HV3", 1, 30, false, true, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.typ.String(); got != tt.name {
				t.Errorf("String() = %q, want %q", got, tt.name)
			}
			if got := tt.typ.Slots(); got != tt.slots {
				t.Errorf("Slots() = %d, want %d", got, tt.slots)
			}
			if got := tt.typ.Payload(); got != tt.payload {
				t.Errorf("Payload() = %d, want %d", got, tt.payload)
			}
			if got := tt.typ.IsACL(); got != tt.acl {
				t.Errorf("IsACL() = %v, want %v", got, tt.acl)
			}
			if got := tt.typ.IsSCO(); got != tt.sco {
				t.Errorf("IsSCO() = %v, want %v", got, tt.sco)
			}
			if got := tt.typ.HasFEC(); got != tt.fec {
				t.Errorf("HasFEC() = %v, want %v", got, tt.fec)
			}
			if got, want := tt.typ.Duration(), time.Duration(tt.slots)*SlotDuration; got != want {
				t.Errorf("Duration() = %v, want %v", got, want)
			}
			if !tt.typ.Valid() {
				t.Errorf("Valid() = false for %v", tt.typ)
			}
		})
	}
}

func TestInvalidPacketType(t *testing.T) {
	for _, typ := range []PacketType{0, -1, PacketType(numPacketTypes + 1)} {
		if typ.Valid() {
			t.Errorf("Valid() = true for %d", int(typ))
		}
		if typ.Slots() != 0 || typ.Payload() != 0 || typ.Duration() != 0 {
			t.Errorf("invalid type %d has nonzero slots/payload/duration", int(typ))
		}
		if typ.IsACL() || typ.IsSCO() || typ.HasFEC() {
			t.Errorf("invalid type %d has a class or FEC", int(typ))
		}
		if got := typ.AirBits(); got != 72+54 {
			t.Errorf("invalid type %d AirBits = %d, want header-only 126", int(typ), got)
		}
		if got, want := typ.String(), fmt.Sprintf("PacketType(%d)", int(typ)); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// refType is an independent copy of the specification's packet table for
// the brute-force reference below.
type refType struct {
	typ     PacketType
	slots   int
	payload int
	acl     bool
}

var refTypes = []refType{
	{TypeNULL, 1, 0, false}, {TypePOLL, 1, 0, false},
	{TypeDM1, 1, 17, true}, {TypeDH1, 1, 27, true},
	{TypeDM3, 3, 121, true}, {TypeDH3, 3, 183, true},
	{TypeDM5, 5, 224, true}, {TypeDH5, 5, 339, true},
	{TypeHV1, 1, 10, false}, {TypeHV2, 1, 20, false}, {TypeHV3, 1, 30, false},
}

// refMembers lists the members of the set over bits 1..11 in ascending
// payload order, ties broken by enum order.
func refMembers(s TypeSet) []refType {
	var out []refType
	for _, r := range refTypes {
		if s&(1<<uint(r.typ)) != 0 {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].payload < out[j].payload })
	return out
}

// TestTypeSetQueriesExhaustive compares every ACL query on all 2^11 sets
// over bits 1..11 against a brute-force walk of the reference table.
func TestTypeSetQueriesExhaustive(t *testing.T) {
	for bits := 0; bits < 1<<numPacketTypes; bits++ {
		s := TypeSet(bits << 1)
		members := refMembers(s)

		var wantTypes []PacketType
		var largest refType
		hasACL := false
		maxPayload, maxSlots := 0, 0
		for _, r := range members {
			wantTypes = append(wantTypes, r.typ)
			if r.slots > maxSlots {
				maxSlots = r.slots
			}
			if r.acl && (!hasACL || r.payload > largest.payload) {
				largest, hasACL = r, true
			}
			if r.acl && r.payload > maxPayload {
				maxPayload = r.payload
			}
		}
		if got := s.Types(); !slices.Equal(got, wantTypes) {
			t.Fatalf("%b: Types() = %v, want %v", bits, got, wantTypes)
		}
		if got, ok := s.LargestACL(); ok != hasACL || got != largest.typ {
			t.Fatalf("%b: LargestACL() = %v, %v; want %v, %v", bits, got, ok, largest.typ, hasACL)
		}
		if got := s.MaxPayload(); got != maxPayload {
			t.Fatalf("%b: MaxPayload() = %d, want %d", bits, got, maxPayload)
		}
		if got := s.MaxSlots(); got != maxSlots {
			t.Fatalf("%b: MaxSlots() = %d, want %d", bits, got, maxSlots)
		}
		for n := 0; n <= 400; n++ {
			var want PacketType
			wantOK := false
			for _, r := range members {
				if r.acl && r.payload >= n {
					want, wantOK = r.typ, true
					break
				}
			}
			if got, ok := s.SmallestFitting(n); ok != wantOK || got != want {
				t.Fatalf("%b: SmallestFitting(%d) = %v, %v; want %v, %v", bits, n, got, ok, want, wantOK)
			}
		}
	}
}

func TestDH3CarriesPaperPayload(t *testing.T) {
	// The paper's evaluation: DH1 max payload 27 bytes, DH3 max 183 bytes.
	if got := TypeDH1.Payload(); got != 27 {
		t.Fatalf("DH1 payload = %d, want 27", got)
	}
	if got := TypeDH3.Payload(); got != 183 {
		t.Fatalf("DH3 payload = %d, want 183", got)
	}
	// All paper GS packets (144..176 bytes) fit in one DH3.
	for size := 144; size <= 176; size++ {
		if size > TypeDH3.Payload() {
			t.Fatalf("packet of %d bytes does not fit a DH3", size)
		}
	}
}

func TestTypeSetBasics(t *testing.T) {
	s := NewTypeSet(TypeDH1, TypeDH3)
	if s.Empty() {
		t.Fatal("set should not be empty")
	}
	if !s.Contains(TypeDH1) || !s.Contains(TypeDH3) {
		t.Fatal("set missing members")
	}
	if s.Contains(TypeDH5) || s.Contains(TypeNULL) {
		t.Fatal("set contains non-members")
	}
	if got := s.String(); got != "{DH1 DH3}" {
		t.Fatalf("String() = %q, want {DH1 DH3}", got)
	}
	if got := s.MaxPayload(); got != 183 {
		t.Fatalf("MaxPayload() = %d, want 183", got)
	}
	if got := s.MaxSlots(); got != 3 {
		t.Fatalf("MaxSlots() = %d, want 3", got)
	}
	var empty TypeSet
	if !empty.Empty() {
		t.Fatal("zero TypeSet should be empty")
	}
	if got := empty.MaxPayload(); got != 0 {
		t.Fatalf("empty MaxPayload() = %d, want 0", got)
	}
	if empty.Contains(PacketType(0)) {
		t.Fatal("empty set contains invalid type")
	}
}

func TestTypeSetAddInvalidIgnored(t *testing.T) {
	s := NewTypeSet(PacketType(0), PacketType(99), TypeDH1)
	if got := len(s.Types()); got != 1 {
		t.Fatalf("set has %d members, want 1", got)
	}
}

func TestTypesSortedByPayload(t *testing.T) {
	s := NewTypeSet(TypeDH5, TypeDM1, TypeDH1, TypeDM3, TypeDH3, TypeDM5)
	types := s.Types()
	for i := 1; i < len(types); i++ {
		if types[i].Payload() < types[i-1].Payload() {
			t.Fatalf("Types() not sorted by payload: %v", types)
		}
	}
}

func TestSmallestFitting(t *testing.T) {
	tests := []struct {
		name  string
		set   TypeSet
		bytes int
		want  PacketType
		ok    bool
	}{
		{"paper small fits DH1", PaperTypes, 20, TypeDH1, true},
		{"paper exactly DH1", PaperTypes, 27, TypeDH1, true},
		{"paper 28 needs DH3", PaperTypes, 28, TypeDH3, true},
		{"paper GS packet 144", PaperTypes, 144, TypeDH3, true},
		{"paper 183 exactly DH3", PaperTypes, 183, TypeDH3, true},
		{"paper 184 does not fit", PaperTypes, 184, 0, false},
		{"all types large payload", ACLAll, 200, TypeDM5, true},
		{"all types huge", ACLAll, 400, 0, false},
		{"zero bytes smallest", PaperTypes, 0, TypeDH1, true},
		{"empty set", 0, 1, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := tt.set.SmallestFitting(tt.bytes)
			if ok != tt.ok {
				t.Fatalf("SmallestFitting(%d) ok = %v, want %v", tt.bytes, ok, tt.ok)
			}
			if ok && got != tt.want {
				t.Fatalf("SmallestFitting(%d) = %v, want %v", tt.bytes, got, tt.want)
			}
		})
	}
}

func TestLargestACL(t *testing.T) {
	if got, ok := PaperTypes.LargestACL(); !ok || got != TypeDH3 {
		t.Fatalf("PaperTypes.LargestACL() = %v, %v; want DH3, true", got, ok)
	}
	if got, ok := ACLAll.LargestACL(); !ok || got != TypeDH5 {
		t.Fatalf("ACLAll.LargestACL() = %v, %v; want DH5, true", got, ok)
	}
	sco := NewTypeSet(TypeHV3)
	if _, ok := sco.LargestACL(); ok {
		t.Fatal("SCO-only set should have no largest ACL type")
	}
}

func TestAirBitsMonotoneInPayload(t *testing.T) {
	if TypeDH3.AirBits() <= TypeDH1.AirBits() {
		t.Fatal("DH3 should occupy more air bits than DH1")
	}
	if TypeDM3.AirBits() <= TypeDH3.AirBits()-54 && TypeDM3.AirBits() <= TypeDM1.AirBits() {
		t.Fatal("AirBits not increasing for DM family")
	}
	if TypeNULL.AirBits() != 72+54 {
		t.Fatalf("NULL AirBits = %d, want header-only", TypeNULL.AirBits())
	}
}

func TestSlotConversions(t *testing.T) {
	if got := SlotsToDuration(3); got != 1875*time.Microsecond {
		t.Fatalf("SlotsToDuration(3) = %v", got)
	}
	tests := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0},
		{time.Microsecond, 1},
		{625 * time.Microsecond, 1},
		{626 * time.Microsecond, 2},
		{1875 * time.Microsecond, 3},
	}
	for _, tt := range tests {
		if got := DurationToSlots(tt.d); got != tt.want {
			t.Errorf("DurationToSlots(%v) = %d, want %d", tt.d, got, tt.want)
		}
	}
}

// TestPropertySmallestFittingIsMinimal checks, for random payload demands
// and random allowed sets, that SmallestFitting returns a fitting type and
// that no smaller allowed ACL type also fits.
func TestPropertySmallestFittingIsMinimal(t *testing.T) {
	f := func(nRaw uint16, setBits uint16) bool {
		n := int(nRaw % 400)
		var set TypeSet
		all := []PacketType{TypeDM1, TypeDH1, TypeDM3, TypeDH3, TypeDM5, TypeDH5}
		for i, typ := range all {
			if setBits&(1<<uint(i)) != 0 {
				set = set.Add(typ)
			}
		}
		got, ok := set.SmallestFitting(n)
		if !ok {
			// Then no allowed ACL type must fit.
			for _, typ := range set.Types() {
				if typ.IsACL() && typ.Payload() >= n {
					return false
				}
			}
			return true
		}
		if !set.Contains(got) || !got.IsACL() || got.Payload() < n {
			return false
		}
		for _, typ := range set.Types() {
			if typ.IsACL() && typ.Payload() >= n && typ.Payload() < got.Payload() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
