package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"bluegs/internal/piconet"
)

// ChurnConfig parameterises the churn workload generator. The zero value
// gives the registered "churn" preset: Poisson GS arrivals every ~4 s
// holding for ~10 s at slaves 1..5 under a 40 ms target, over a 60
// kbps-per-direction best-effort floor at slaves 6 and 7, for 60
// simulated seconds.
type ChurnConfig struct {
	// Duration is the simulated horizon (default 60 s).
	Duration time.Duration
	// MeanArrival is the mean GS inter-arrival time (default 4 s).
	MeanArrival time.Duration
	// Poller selects the best-effort discipline competing with the
	// churning GS set (default PFP). The churn-<poller> presets exercise
	// every kind: whether a poller's state survives flow churn is part
	// of the E8 study.
	Poller BEPollerKind
}

// churnSlaves is how many slaves (1..churnSlaves) the GS arrivals cycle
// over, keeping 6 and 7 for the best-effort floor.
const churnSlaves = 5

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if c.MeanArrival <= 0 {
		c.MeanArrival = 4 * time.Second
	}
	return c
}

// Churn generates the paper's evaluation under flow churn: Guaranteed
// Service requests arrive over time (Poisson), hold for an exponential
// session, and leave — each one passing the online admission test against
// whatever is installed at that moment — over a static best-effort floor
// that soaks up the leftover capacity. The generator draws the arrival
// pattern once, from its own seed, so the returned Spec is pure data:
// every replication of a sweep replays the identical request sequence
// while Spec.Seed varies the packet-level randomness.
func Churn(cfg ChurnConfig) Spec {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(1))
	expDur := func(mean time.Duration) time.Duration {
		d := time.Duration(rng.ExpFloat64() * float64(mean))
		if d <= 0 {
			d = time.Nanosecond
		}
		return d
	}

	// The best-effort floor: both directions at the last two slaves.
	be := append(bePair(1, 6, 60, 0), bePair(3, 7, 60, 0)...)

	// GS arrivals: walk the Poisson process chronologically, releasing
	// (slave, direction) endpoints as their sessions end, and voice each
	// new request at the first free endpoint. Requests that find every
	// endpoint busy are dropped by the generator (the piconet could
	// never host them: one GS flow per slave and direction).
	type endpoint struct {
		slave piconet.SlaveID
		dir   piconet.Direction
	}
	type departure struct {
		at time.Duration
		ep endpoint
	}
	busy := make(map[endpoint]bool)
	var pending []departure
	var events []TimelineEvent
	id := piconet.FlowID(100)
	for at := expDur(cfg.MeanArrival); at < cfg.Duration; at += expDur(cfg.MeanArrival) {
		// Free the endpoints of sessions that ended before this arrival.
		kept := pending[:0]
		for _, d := range pending {
			if d.at <= at {
				delete(busy, d.ep)
			} else {
				kept = append(kept, d)
			}
		}
		pending = kept
		var ep endpoint
		found := false
		for s := piconet.SlaveID(1); !found && int(s) <= churnSlaves; s++ {
			for _, dir := range []piconet.Direction{piconet.Up, piconet.Down} {
				if !busy[endpoint{s, dir}] {
					ep = endpoint{s, dir}
					found = true
					break
				}
			}
		}
		if !found {
			continue
		}
		busy[ep] = true
		events = append(events, AddGSAt(at, voice(id, ep.slave, ep.dir, 0)))
		if depart := at + expDur(10*time.Second); depart < cfg.Duration {
			events = append(events, RemoveAt(depart, id))
			pending = append(pending, departure{at: depart, ep: ep})
		}
		id++
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })

	name := "churn"
	if cfg.Poller != "" {
		name = fmt.Sprintf("churn-%s", cfg.Poller)
	}
	return Spec{
		Name:        name,
		BE:          be,
		BEPoller:    cfg.Poller,
		DelayTarget: 40 * time.Millisecond,
		Duration:    cfg.Duration,
		Timeline:    events,
		Seed:        1,
	}
}
