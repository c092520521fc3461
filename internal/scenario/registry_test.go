package scenario

import (
	"reflect"
	"testing"
	"time"
)

// TestRegistryPresets pins the catalogue: CI's registry smoke runs every
// name `btsim -list` prints, so a dropped entry must fail here.
func TestRegistryPresets(t *testing.T) {
	want := []string{
		"baseline-demand", "baseline-edc", "baseline-exhaustive-rr", "baseline-fep",
		"baseline-hol-priority", "baseline-pfp", "baseline-round-robin",
		"bridge-chain", "bridge-pair",
		"churn", "churn-demand", "churn-edc", "churn-exhaustive-rr", "churn-fep",
		"churn-hol-priority", "churn-pfp", "churn-round-robin",
		"faults-degrade", "faults-handoff", "paper-fig4", "scatternet", "scatternet-pair",
	}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %q\nwant %q", got, want)
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Fatal("Lookup invented a scenario")
	}
}

// TestRegistryScenariosRun: every registered scenario must actually run —
// the registry is user-facing surface (btsim -scenario), so a preset that
// errors is a release blocker.
func TestRegistryScenariosRun(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, ok := Lookup(name)
			if !ok {
				t.Fatal("registered name does not resolve")
			}
			spec.Duration = 2 * time.Second
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Interference.Enabled {
				// Co-channel interference eroding the per-piconet bounds
				// is the point of the scatternet presets (the E9 study
				// measures it); violations are expected, errors are not.
				return
			}
			if v := res.BoundViolations(); len(v) != 0 {
				t.Fatalf("violations: %+v", v)
			}
		})
	}
}
