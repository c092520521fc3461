package admission

import (
	"errors"
	"testing"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
	"bluegs/internal/sco"
)

// scoLinks builds the Config.SCOLinks of the given HV types.
func scoLinks(t *testing.T, types ...baseband.PacketType) []sco.Channel {
	t.Helper()
	out := make([]sco.Channel, 0, len(types))
	for _, typ := range types {
		ch, err := sco.NewChannel(typ)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ch)
	}
	return out
}

func TestSCOWindowRejectsWideExchanges(t *testing.T) {
	// With an HV3 link the free window is 4 slots; the conservative
	// (both-legs-DH3) exchange of 6 slots can never be scheduled.
	chs := scoLinks(t, baseband.TypeHV3)
	c := NewController(Config{MaxExchange: 2500 * time.Microsecond, SCOLinks: chs})
	_, err := c.Admit(paperRequest(1, 1, piconet.Up, 8800))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("conservative exchange through HV3 window: err = %v", err)
	}
	if !errors.Is(err, ErrSCOWindow) {
		t.Fatalf("expected window diagnosis, got %v", err)
	}
}

func TestSCOAsHighestPriorityStream(t *testing.T) {
	// Direction-aware mode: the single up flow's exchange is 4 slots and
	// fits the HV3 window; its x absorbs the SCO reservations as an
	// implicit highest-priority stream (hand fixed point: 15 ms).
	chs := scoLinks(t, baseband.TypeHV3)
	cfg := Config{
		MaxExchange:    2500 * time.Microsecond, // POLL+DH3 worst ongoing ACL
		DirectionAware: true,
		SCOLinks:       chs,
	}
	c := NewController(cfg)
	pf, err := c.Admit(paperRequest(1, 1, piconet.Up, 8800))
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if pf.X != 15*time.Millisecond {
		t.Fatalf("x with HV3 SCO = %v, want 15ms", pf.X)
	}
	// Without the SCO link the same flow has x = Xi = 2.5 ms.
	c2 := NewController(Config{MaxExchange: 2500 * time.Microsecond, DirectionAware: true})
	pf2, err := c2.Admit(paperRequest(1, 1, piconet.Up, 8800))
	if err != nil {
		t.Fatalf("Admit without SCO: %v", err)
	}
	if pf2.X != 2500*time.Microsecond {
		t.Fatalf("x without SCO = %v, want 2.5ms", pf2.X)
	}
	if pf.Bound <= pf2.Bound {
		t.Fatalf("SCO should loosen the bound: %v vs %v", pf.Bound, pf2.Bound)
	}
}

func TestSCOMixedTypesRejected(t *testing.T) {
	chs := scoLinks(t, baseband.TypeHV3, baseband.TypeHV2)
	c := NewController(Config{MaxExchange: 2500 * time.Microsecond, DirectionAware: true, SCOLinks: chs})
	if _, err := c.Admit(paperRequest(1, 1, piconet.Up, 8800)); !errors.Is(err, ErrSCOMixedTypes) {
		t.Fatalf("mixed SCO types: err = %v", err)
	}
}
