// Package baseband models the Bluetooth baseband layer as specified in the
// Bluetooth 1.0b/1.1 specification, at the level of detail the polling
// analysis of Ait Yaiz & Heijenk (ICDCSW'03) depends on: slot timing, packet
// types with their slot occupancy and payload capacity, and the master-driven
// TDD rules of a piconet.
//
// Bluetooth divides time into 625 µs slots (1600 slots per second). The
// master transmits in even-numbered slots and the addressed slave answers in
// the following odd-numbered slot. ACL data packets cover one, three, or five
// slots; SCO packets always cover one slot.
package baseband

import (
	"fmt"
	"strings"
	"time"
)

// Slot timing constants from the Bluetooth specification.
const (
	// SlotDuration is the length of one baseband time slot.
	SlotDuration = 625 * time.Microsecond
	// SlotsPerSecond is the nominal slot rate of a piconet.
	SlotsPerSecond = 1600
	// MaxActiveSlaves is the maximum number of active slaves in a piconet
	// (the 3-bit AM_ADDR minus the all-zero broadcast address).
	MaxActiveSlaves = 7
)

// PacketType enumerates the baseband packet types relevant to ACL and SCO
// links. Following the style guide, the enum starts at one so that the zero
// value is recognisably invalid.
type PacketType int

// Baseband packet types.
const (
	// TypeNULL is a 1-slot packet with no payload, used by a slave that
	// has nothing to send in response to a poll (and for ARQ feedback).
	TypeNULL PacketType = iota + 1
	// TypePOLL is a 1-slot packet with no payload by which the master
	// explicitly polls a slave; it must be acknowledged.
	TypePOLL
	// TypeDM1 is a 1-slot medium-rate data packet (2/3 FEC), 17 bytes.
	TypeDM1
	// TypeDH1 is a 1-slot high-rate data packet (no FEC), 27 bytes.
	TypeDH1
	// TypeDM3 is a 3-slot medium-rate data packet (2/3 FEC), 121 bytes.
	TypeDM3
	// TypeDH3 is a 3-slot high-rate data packet (no FEC), 183 bytes.
	TypeDH3
	// TypeDM5 is a 5-slot medium-rate data packet (2/3 FEC), 224 bytes.
	TypeDM5
	// TypeDH5 is a 5-slot high-rate data packet (no FEC), 339 bytes.
	TypeDH5
	// TypeHV1 is a 1-slot SCO voice packet (1/3 FEC), 10 bytes.
	TypeHV1
	// TypeHV2 is a 1-slot SCO voice packet (2/3 FEC), 20 bytes.
	TypeHV2
	// TypeHV3 is a 1-slot SCO voice packet (no FEC), 30 bytes.
	TypeHV3

	numPacketTypes = int(TypeHV3)
)

// packetInfo holds the static properties of a packet type.
type packetInfo struct {
	name    string
	slots   int
	payload int // bytes of user payload
	acl     bool
	sco     bool
	fec     bool
}

// packetInfos is indexed by PacketType. Entry 0 is the zero entry every
// invalid type reads, so the property accessors below are single
// bounds-checked table reads that the compiler inlines.
var packetInfos = [...]packetInfo{
	TypeNULL: {name: "NULL", slots: 1, payload: 0},
	TypePOLL: {name: "POLL", slots: 1, payload: 0},
	TypeDM1:  {name: "DM1", slots: 1, payload: 17, acl: true, fec: true},
	TypeDH1:  {name: "DH1", slots: 1, payload: 27, acl: true},
	TypeDM3:  {name: "DM3", slots: 3, payload: 121, acl: true, fec: true},
	TypeDH3:  {name: "DH3", slots: 3, payload: 183, acl: true},
	TypeDM5:  {name: "DM5", slots: 5, payload: 224, acl: true, fec: true},
	TypeDH5:  {name: "DH5", slots: 5, payload: 339, acl: true},
	TypeHV1:  {name: "HV1", slots: 1, payload: 10, sco: true, fec: true},
	TypeHV2:  {name: "HV2", slots: 1, payload: 20, sco: true, fec: true},
	TypeHV3:  {name: "HV3", slots: 1, payload: 30, sco: true},
}

// Valid reports whether t is a known packet type.
func (t PacketType) Valid() bool {
	return t >= TypeNULL && int(t) <= numPacketTypes
}

// info returns t's table entry, or the zero entry for an invalid type.
func (t PacketType) info() *packetInfo {
	if uint(t) < uint(len(packetInfos)) {
		return &packetInfos[t]
	}
	return &packetInfos[0]
}

// String returns the specification name of the packet type (e.g. "DH3").
func (t PacketType) String() string {
	if !t.Valid() {
		return fmt.Sprintf("PacketType(%d)", int(t))
	}
	return packetInfos[t].name
}

// Slots returns the number of time slots the packet occupies on air.
func (t PacketType) Slots() int { return t.info().slots }

// Duration returns the air time of the packet: its slot count times the slot
// duration. (The actual burst is slightly shorter than the slot; the guard
// space is charged to the packet, as in the paper's analysis.)
func (t PacketType) Duration() time.Duration {
	return time.Duration(t.info().slots) * SlotDuration
}

// Payload returns the maximum user payload of the packet type in bytes.
func (t PacketType) Payload() int { return t.info().payload }

// IsACL reports whether the packet type is an ACL data packet.
func (t PacketType) IsACL() bool { return t.info().acl }

// IsSCO reports whether the packet type is an SCO voice packet.
func (t PacketType) IsSCO() bool { return t.info().sco }

// HasFEC reports whether the packet payload is FEC protected.
func (t PacketType) HasFEC() bool { return t.info().fec }

// AirBits returns the approximate number of bits the packet occupies on air,
// used by bit-error channel models: access code (72) + header (54) + payload
// bits (FEC-expanded where applicable). NULL and POLL have no payload.
func (t PacketType) AirBits() int {
	const overhead = 72 + 54
	pl := t.Payload() * 8
	// A 2/3 FEC payload occupies 3/2 of the payload bits; 1/3 FEC (HV1)
	// occupies 3 times. Payload headers are folded into the constant
	// overhead for simplicity; channel models only need a monotone,
	// roughly correct bit count.
	switch {
	case t == TypeHV1:
		pl *= 3
	case t.HasFEC():
		pl = pl * 3 / 2
	}
	return overhead + pl
}

// TypeSet is a set of packet types, used to express which baseband packets a
// link is allowed to use (the paper's evaluation allows DH1 and DH3 only).
// The zero value is the empty set.
type TypeSet uint32

// NewTypeSet returns a set containing the given types.
func NewTypeSet(types ...PacketType) TypeSet {
	var s TypeSet
	for _, t := range types {
		s = s.Add(t)
	}
	return s
}

// Add returns the set with t added.
func (s TypeSet) Add(t PacketType) TypeSet {
	if !t.Valid() {
		return s
	}
	return s | 1<<uint(t)
}

// Contains reports whether t is in the set.
func (s TypeSet) Contains(t PacketType) bool {
	if !t.Valid() {
		return false
	}
	return s&(1<<uint(t)) != 0
}

// Empty reports whether the set contains no types.
func (s TypeSet) Empty() bool { return s == 0 }

// validTypes is the set of every valid packet type.
const validTypes = TypeSet(1<<(numPacketTypes+1) - 1<<TypeNULL)

// payloadOrder lists every valid packet type in ascending payload order
// (ties broken by enum order), computed once at init.
var payloadOrder = func() [numPacketTypes]PacketType {
	var out [numPacketTypes]PacketType
	for i := range out {
		out[i] = PacketType(i + 1)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Payload() < out[j-1].Payload(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}()

// aclByPayload lists the ACL types in ascending payload order. Their
// payloads are distinct, and their slot counts never fall as payload
// rises. The ACL queries below are walks over this fixed order that test
// one set bit per step.
var aclByPayload = [...]PacketType{TypeDM1, TypeDH1, TypeDM3, TypeDH3, TypeDM5, TypeDH5}

// Types returns the members of the set in ascending payload order (ties
// broken by enum order). ACL sets ordered this way are convenient for
// best-fit searches.
func (s TypeSet) Types() []PacketType {
	var out []PacketType
	for _, t := range payloadOrder {
		if s.Contains(t) {
			out = append(out, t)
		}
	}
	return out
}

// String renders the set as "{DH1 DH3}".
func (s TypeSet) String() string {
	names := make([]string, 0, 4)
	for _, t := range s.Types() {
		names = append(names, t.String())
	}
	return "{" + strings.Join(names, " ") + "}"
}

// MaxPayload returns the largest payload capacity among the set's ACL
// members, or zero if the set has no ACL members.
func (s TypeSet) MaxPayload() int {
	t, _ := s.LargestACL()
	return t.Payload()
}

// MaxSlots returns the largest slot occupancy among the set's members, or
// zero for an empty set.
func (s TypeSet) MaxSlots() int {
	if t, ok := s.LargestACL(); ok {
		return t.Slots()
	}
	if s&validTypes != 0 {
		return 1 // every non-ACL packet occupies one slot
	}
	return 0
}

// SmallestFitting returns the ACL member of the set with the smallest
// payload capacity that still fits n bytes. ok is false when no member fits
// (callers should then send the largest member and carry the remainder in
// further packets).
func (s TypeSet) SmallestFitting(n int) (PacketType, bool) {
	for _, t := range aclByPayload {
		if s&(1<<t) != 0 && t.Payload() >= n {
			return t, true
		}
	}
	return 0, false
}

// LargestACL returns the ACL member with the largest payload, ok=false when
// the set has no ACL member.
func (s TypeSet) LargestACL() (PacketType, bool) {
	for i := len(aclByPayload) - 1; i >= 0; i-- {
		if t := aclByPayload[i]; s&(1<<t) != 0 {
			return t, true
		}
	}
	return 0, false
}

// Common type sets.
var (
	// ACL1Slot is the set of 1-slot ACL packets.
	ACL1Slot = NewTypeSet(TypeDM1, TypeDH1)
	// ACLHighRate is the set of unprotected ACL packets.
	ACLHighRate = NewTypeSet(TypeDH1, TypeDH3, TypeDH5)
	// ACLMediumRate is the set of FEC-protected ACL packets.
	ACLMediumRate = NewTypeSet(TypeDM1, TypeDM3, TypeDM5)
	// ACLAll is the set of all ACL data packets.
	ACLAll = NewTypeSet(TypeDM1, TypeDH1, TypeDM3, TypeDH3, TypeDM5, TypeDH5)
	// PaperTypes is the set used throughout the paper's evaluation:
	// DH1 (27 bytes) and DH3 (183 bytes).
	PaperTypes = NewTypeSet(TypeDH1, TypeDH3)
)

// SlotsToDuration converts a slot count to air time.
func SlotsToDuration(slots int) time.Duration {
	return time.Duration(slots) * SlotDuration
}

// DurationToSlots converts a duration to whole slots, rounding up.
func DurationToSlots(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return int((d + SlotDuration - 1) / SlotDuration)
}
