package admission

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/piconet"
	"bluegs/internal/sco"
	"bluegs/internal/tspec"
)

var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/plans.golden")

// planFlow is one endpoint of a golden flow set.
type planFlow struct {
	slave piconet.SlaveID
	dir   piconet.Direction
}

// paperFlows is the paper's §4.1 Guaranteed Service flow set (Fig. 4/5).
var paperFlows = []planFlow{{1, piconet.Up}, {2, piconet.Down}, {2, piconet.Up}, {3, piconet.Up}}

func goldenDelayReqs(flows []planFlow, target time.Duration) []DelayRequest {
	reqs := make([]DelayRequest, len(flows))
	for i, f := range flows {
		reqs[i] = DelayRequest{Request: paperRequest(piconet.FlowID(i+1), f.slave, f.dir, 0), Target: target}
	}
	return reqs
}

// writePlan renders every planned flow on one line, rates and C terms as
// their exact bit patterns, or the error text of a failed plan.
func writePlan(w *bytes.Buffer, c *Controller, err error) {
	if err != nil {
		fmt.Fprintf(w, "error: %v\n", err)
		return
	}
	for _, pf := range c.Flows() {
		fmt.Fprintf(w, "flow=%d prio=%d rate=%016x C=%016x t=%v x=%v D=%v bound=%v\n",
			pf.Request.ID, pf.Priority, math.Float64bits(pf.Request.Rate),
			math.Float64bits(pf.Terms.C), pf.Params.Interval, pf.X, pf.Terms.D, pf.Bound)
	}
}

// renderPlans runs the paper flow set through every planner at each Fig. 5
// delay target, with and without piggybacking, on the ideal channel, a
// derated channel and direction-aware with Xi derived from the flows, then
// a set of malformed flow sets and a flow set beside an HV3 voice link.
func renderPlans(t *testing.T) []byte {
	t.Helper()
	hv3, err := sco.NewChannel(baseband.TypeHV3)
	if err != nil {
		t.Fatal(err)
	}
	maxEx := baseband.SlotsToDuration(6)
	configs := []struct {
		name string
		cfg  Config
	}{
		{"ideal", Config{MaxExchange: maxEx}},
		{"derated", Config{MaxExchange: maxEx, SuccessProb: 0.93}},
		{"direction-aware", Config{DirectionAware: true}},
	}
	var w bytes.Buffer
	for _, cc := range configs {
		for _, piggy := range []bool{true, false} {
			var opts []ControllerOption
			if !piggy {
				opts = append(opts, WithoutPiggybacking())
			}
			for target := 28 * time.Millisecond; target <= 46*time.Millisecond; target += 2 * time.Millisecond {
				head := fmt.Sprintf("%s piggyback=%v target=%v", cc.name, piggy, target)
				reqs := goldenDelayReqs(paperFlows, target)

				fmt.Fprintf(&w, "== %s PlanForDelay\n", head)
				c, err := PlanForDelay(reqs, cc.cfg, opts...)
				writePlan(&w, c, err)

				fmt.Fprintf(&w, "== %s PlanForDelayBestEffort\n", head)
				c, err = PlanForDelayBestEffort(reqs, cc.cfg, opts...)
				writePlan(&w, c, err)

				// The online sequence admits a fifth flow the paper set
				// leaves out, then renegotiates, re-derates, tries a
				// voice link and removes.
				fmt.Fprintf(&w, "== %s AdmitForDelay\n", head)
				c = NewController(cc.cfg, opts...)
				seq := goldenDelayReqs(slices.Concat(paperFlows, []planFlow{{4, piconet.Up}}), target)
				for _, dr := range seq {
					if _, err := c.AdmitForDelay(dr); err != nil {
						fmt.Fprintf(&w, "admit %d: error: %v\n", dr.Request.ID, err)
					}
				}
				writePlan(&w, c, nil)
				if _, err := c.Renegotiate(1, target-4*time.Millisecond); err != nil {
					fmt.Fprintf(&w, "renegotiate 1: error: %v\n", err)
				}
				if err := c.SetSuccessProb(0.9); err != nil {
					fmt.Fprintf(&w, "success prob 0.9: error: %v\n", err)
				}
				if err := c.SetSCOLinks([]sco.Channel{hv3}); err != nil {
					fmt.Fprintf(&w, "hv3 link: error: %v\n", err)
				}
				if err := c.Remove(2); err != nil {
					fmt.Fprintf(&w, "remove 2: error: %v\n", err)
				}
				writePlan(&w, c, nil)
			}
		}
	}

	// Malformed flow sets, and one no exchange of which fits between HV3
	// reservations: the error text each planner reports.
	malformed := []struct {
		name string
		edit func(*Config, []DelayRequest)
	}{
		{"duplicate-id", func(_ *Config, r []DelayRequest) { r[2].Request.ID = 1 }},
		{"duplicate-endpoint", func(_ *Config, r []DelayRequest) { r[2].Request.Dir = piconet.Down }},
		{"no-acl-types", func(_ *Config, r []DelayRequest) { r[1].Request.Allowed = baseband.NewTypeSet(baseband.TypeHV3) }},
		{"bad-tspec", func(_ *Config, r []DelayRequest) { r[3].Request.Spec = tspec.CBR(20*time.Millisecond, 200, 176) }},
		{"zero-id", func(_ *Config, r []DelayRequest) { r[1].Request.ID = piconet.None }},
		{"hv3-link", func(cfg *Config, _ []DelayRequest) { cfg.SCOLinks = []sco.Channel{hv3} }},
	}
	for _, m := range malformed {
		reqs := goldenDelayReqs(paperFlows, 40*time.Millisecond)
		cfg := configs[0].cfg
		m.edit(&cfg, reqs)
		fmt.Fprintf(&w, "== malformed %s PlanForDelay\n", m.name)
		c, err := PlanForDelay(reqs, cfg)
		writePlan(&w, c, err)
		fmt.Fprintf(&w, "== malformed %s PlanForDelayBestEffort\n", m.name)
		c, err = PlanForDelayBestEffort(reqs, cfg)
		writePlan(&w, c, err)
		fmt.Fprintf(&w, "== malformed %s AdmitForDelay\n", m.name)
		c = NewController(cfg)
		for _, dr := range reqs {
			if _, err := c.AdmitForDelay(dr); err != nil {
				fmt.Fprintf(&w, "admit %d: error: %v\n", dr.Request.ID, err)
			}
		}
		writePlan(&w, c, nil)
	}
	return w.Bytes()
}

// TestPlansGolden pins every plan, priority, rate bit pattern, exported
// term and error text the planners produce for the paper flow set, so a
// speed-only change to admission must leave them byte-identical.
// Regenerate with -update-plans only when plans are meant to move.
func TestPlansGolden(t *testing.T) {
	got := renderPlans(t)
	path := filepath.Join("testdata", "plans.golden")
	if *updatePlans {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-plans)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("plans differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plans differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
