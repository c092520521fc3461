package scenario

import (
	"fmt"
	"sort"
	"time"

	"bluegs/internal/faults"
)

// AllBEPollers lists every best-effort poller kind, in comparison order.
var AllBEPollers = []BEPollerKind{
	BEPFP, BERoundRobin, BEExhaustive, BEFEP, BEEDC, BEDemand, BEHOL,
}

// registry is the preset catalogue behind `btsim -scenario <name>` and
// `-list`. Every builder is deterministic: it runs once per Lookup.
var registry = func() map[string]func() Spec {
	r := map[string]func() Spec{
		"paper-fig4":      func() Spec { return Paper(40 * time.Millisecond) },
		"churn":           func() Spec { return Churn(ChurnConfig{}) },
		"scatternet":      func() Spec { return Scatternet(ScatternetConfig{}) },
		"scatternet-pair": func() Spec { return Scatternet(ScatternetConfig{Piconets: 2}) },
		"faults-degrade":  func() Spec { return FaultScenario(FaultScenarioConfig{Policy: faults.PolicyDegrade}) },
		"faults-handoff":  func() Spec { return FaultScenario(FaultScenarioConfig{Policy: faults.PolicyHandoff}) },
		"bridge-pair":     func() Spec { return Bridged(BridgedConfig{Hops: 2}) },
		"bridge-chain":    func() Spec { return Bridged(BridgedConfig{Hops: 3}) },
	}
	for _, kind := range AllBEPollers {
		r[fmt.Sprintf("baseline-%s", kind)] = func() Spec { return Baseline(kind) }
		r[fmt.Sprintf("churn-%s", kind)] = func() Spec { return Churn(ChurnConfig{Poller: kind}) }
	}
	return r
}()

// Lookup builds the named preset, reporting whether the name exists.
func Lookup(name string) (Spec, bool) {
	build, ok := registry[name]
	if !ok {
		return Spec{}, false
	}
	return build(), true
}

// Names returns the preset names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
