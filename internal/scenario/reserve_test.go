package scenario

import (
	"testing"
	"time"

	"bluegs/internal/piconet"
	"bluegs/internal/traffic"
)

// TestReservationMatchesOffered checks the count a flow's delay sample
// reserves when its source attaches (Spec.offerable) against the packets
// the source really offers (FlowOffered), with and without batched
// sources: phases and intervals that land exactly on the horizon, a
// phase past it, a mid-run add_gs, and a removal, where the reservation
// may exceed the offered count by the arrival at the removal instant.
func TestReservationMatchesOffered(t *testing.T) {
	const ms = time.Millisecond
	gs := func(id piconet.FlowID, slave piconet.SlaveID, interval, phase time.Duration) GSFlow {
		return GSFlow{ID: id, Slave: slave, Dir: piconet.Up, Interval: interval, MinSize: 144, MaxSize: 176, Phase: phase}
	}
	be := BEFlow{ID: 5, Slave: 7, Dir: piconet.Down, RateKbps: 70.4, PacketSize: 176, Phase: 5 * ms}
	cases := []struct {
		id       piconet.FlowID
		attach   time.Duration
		phase    time.Duration
		interval time.Duration
		want     int // the reservation; -1 where the timeline removes the flow
	}{
		{1, 0, 0, 40 * ms, 26},        // 0, 40, …, 1000: the horizon counts
		{2, 0, 10 * ms, 30 * ms, 34},  // 10, 40, …, 1000
		{3, 0, 3 * ms, 40 * ms, 25},   // 3, 43, …, 963
		{4, 0, 1500 * ms, 40 * ms, 0}, // first arrival past the horizon
		{5, 0, be.Phase, traffic.CBRForRate(be.RateKbps*1000, be.PacketSize).NextInterval(), 50},
		{6, 400 * ms, 0, 50 * ms, 13}, // add_gs at 400 ms: 400, 450, …, 1000
		{7, 200 * ms, 0, 40 * ms, -1}, // add_gs at 200 ms, removed at 700 ms
	}
	spec := Spec{
		GS: []GSFlow{gs(1, 1, 40*ms, 0), gs(2, 2, 30*ms, 10*ms), gs(3, 3, 40*ms, 3*ms), gs(4, 4, 40*ms, 1500*ms)},
		BE: []BEFlow{be},
		Timeline: []TimelineEvent{
			AddGSAt(400*ms, gs(6, 5, 50*ms, 0)),
			AddGSAt(200*ms, gs(7, 6, 40*ms, 0)),
			RemoveAt(700*ms, 7),
		},
		DelayTarget: 100 * ms,
		Duration:    time.Second,
	}
	for _, batch := range []bool{false, true} {
		spec.BatchTraffic = batch
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range res.Admissions {
			if !a.Accepted {
				t.Fatalf("batch=%v: %s of flow %d refused: %s", batch, a.Op, a.Flow, a.Reason)
			}
		}
		defaulted := spec.WithDefaults()
		for _, c := range cases {
			f, ok := res.FlowByID(c.id)
			if !ok {
				t.Fatalf("batch=%v: flow %d missing", batch, c.id)
			}
			n := defaulted.offerable("", c.id, nil, c.attach, c.phase, c.interval)
			if c.want >= 0 && (n != c.want || f.Offered != uint64(n)) {
				t.Errorf("batch=%v flow %d: reserved %d, offered %d, want %d", batch, c.id, n, f.Offered, c.want)
			}
			if c.want < 0 && (uint64(n) < f.Offered || uint64(n) > f.Offered+1) {
				t.Errorf("batch=%v flow %d: reserved %d for %d offered before its removal", batch, c.id, n, f.Offered)
			}
		}
	}
}

// TestRouteReservationMatchesOffered checks a static route's reservation
// against the packets its source offers: the route's end-to-end sample
// and its first hop's flow sample reserve the same count.
func TestRouteReservationMatchesOffered(t *testing.T) {
	spec := bridgedPair(2 * time.Second)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	defaulted := spec.WithDefaults()
	for _, rs := range defaulted.Routes {
		hops, err := defaulted.routeHops(rs)
		if err != nil {
			t.Fatal(err)
		}
		n := defaulted.offerable(hops[0].Piconet, rs.ID, &routeState{spec: rs, hops: hops}, 0, rs.Phase, rs.Interval)
		rr, ok := res.RouteByID(rs.ID)
		if !ok {
			t.Fatalf("route %d missing", rs.ID)
		}
		if n == 0 || rr.Offered != uint64(n) {
			t.Errorf("route %d: reserved %d, offered %d", rs.ID, n, rr.Offered)
		}
	}
}
