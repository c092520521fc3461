package admission

import (
	"errors"
	"fmt"
	"math"
	"time"

	"bluegs/internal/gs"
)

// ErrTargetInfeasible reports that no rate assignment meets all delay
// targets.
var ErrTargetInfeasible = errors.New("admission: delay targets infeasible")

// DelayRequest is a flow request expressed as a desired delay bound instead
// of an explicit rate (the receiver's side of the Guaranteed Service
// negotiation: it picks R from the exported C/D terms, paper §2).
type DelayRequest struct {
	// Request carries everything but the rate (Rate is ignored).
	Request Request
	// Target is the requested delay bound.
	Target time.Duration
}

// SplitBudget statically divides an end-to-end delay budget across the
// hops of a multi-hop route: equal shares, with the division remainder
// granted to the first hop so the shares sum exactly to the budget. Each
// share then becomes one hop's AdmitForDelay target, decomposing the
// end-to-end guarantee into per-piconet contracts.
func SplitBudget(target time.Duration, hops int) []time.Duration {
	if hops <= 0 || target <= 0 {
		return nil
	}
	out := make([]time.Duration, hops)
	share := target / time.Duration(hops)
	for i := range out {
		out[i] = share
	}
	out[0] += target - share*time.Duration(hops)
	return out
}

// PlanForDelay finds, by fixed-point iteration, minimal per-flow rates such
// that every flow's Guaranteed Service delay bound meets its target under
// the resulting priority assignment, and returns the final admission plan.
//
// The circularity it resolves: the bound depends on the exported D = x_i,
// which depends on every flow's poll interval t = eta/R, which depends on
// the rates chosen from the bounds. Iteration starts from the legal minimum
// R = r and raises rates until all targets hold (rates only rise, so the
// iteration is monotone; it fails if a target remains unmet). Each
// iteration re-admits every flow, and every such trial reuses the flow's
// rate-independent shape (eta_min, the largest segment), derived when the
// flow is first admitted. The trials share one workspace; the returned
// controller's plan is a copy of its own.
func PlanForDelay(reqs []DelayRequest, cfg Config, opts ...ControllerOption) (*Controller, error) {
	if len(reqs) == 0 {
		return NewController(cfg, opts...), nil
	}
	rates := make([]float64, len(reqs))
	for i, dr := range reqs {
		if err := dr.Request.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("%w: flow %d: %v", ErrBadRequest, dr.Request.ID, err)
		}
		// The legal minimum under derating: the reserved rate must
		// still cover the token rate after the interference tax (and,
		// for bridge hops, the residency duty cycle).
		rates[i] = dr.Request.Spec.TokenRate / cfg.successProbFor(dr.Request)
	}

	shapes := make([]Params, len(reqs))
	ws := new(workspace)
	ws.reserve(len(reqs))
	const maxIters = 50
	var ctrl *Controller
	for iter := 0; iter < maxIters; iter++ {
		c, refused, err := admitAll(reqs, rates, shapes, cfg, opts, ws)
		if err != nil {
			return nil, fmt.Errorf("%w: flow %d at iteration %d: %v",
				ErrTargetInfeasible, reqs[refused].Request.ID, iter, err)
		}
		// Check targets and raise rates where the bound is too loose.
		allMet := true
		for i, dr := range reqs {
			pf, ok := c.Find(dr.Request.ID)
			if !ok {
				return nil, fmt.Errorf("%w: flow %d lost", ErrTargetInfeasible, dr.Request.ID)
			}
			if pf.Bound <= dr.Target {
				continue
			}
			allMet = false
			needed, err := gs.RequiredRate(dr.Request.Spec, dr.Target, pf.Terms)
			if err != nil {
				return nil, fmt.Errorf("%w: flow %d: %v", ErrTargetInfeasible, dr.Request.ID, err)
			}
			// RequiredRate speaks in effective rate; reserve 1/s more.
			needed /= cfg.successProbFor(dr.Request)
			// Rates must be monotone non-decreasing for convergence.
			if needed > rates[i] {
				rates[i] = needed
			} else {
				// The bound misses the target yet the formula
				// asks for no more rate: x grew due to other
				// flows. Nudge upward to make progress.
				rates[i] = math.Nextafter(rates[i], math.Inf(1)) * 1.01
			}
		}
		if allMet {
			ctrl = c
			break
		}
	}
	if ctrl == nil {
		return nil, fmt.Errorf("%w: no convergence after %d iterations", ErrTargetInfeasible, maxIters)
	}
	return ctrl.detach(), nil
}

// PlanForDelayBestEffort is the evaluation harness's variant of
// PlanForDelay: targets that are achievable are met exactly; a flow whose
// target is below the supportable minimum is instead driven to (close to)
// its highest feasible rate, yielding the tightest achievable bound. The
// paper's Fig. 5 sweeps delay requirements below the §4.1 supportable
// minimum of the lowest-priority flow, which only makes sense under this
// clamping interpretation (see EXPERIMENTS.md). Its search admits the
// whole flow set at up to 120 proposals of up to 20 backtracking steps
// each; every trial reuses each flow's rate-independent shape (eta_min,
// the largest segment), derived when the flow is first admitted. The
// trials run in two workspaces that swap on each accepted proposal, so the
// last feasible plan survives the next trials; the returned controller's
// plan is a copy of its own.
func PlanForDelayBestEffort(reqs []DelayRequest, cfg Config, opts ...ControllerOption) (*Controller, error) {
	if len(reqs) == 0 {
		return NewController(cfg, opts...), nil
	}
	rates := make([]float64, len(reqs))
	for i, dr := range reqs {
		if err := dr.Request.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("%w: flow %d: %v", ErrBadRequest, dr.Request.ID, err)
		}
		rates[i] = dr.Request.Spec.TokenRate / cfg.successProbFor(dr.Request)
	}
	shapes := make([]Params, len(reqs))
	// good holds lastGood's plan; spare runs the trials.
	ws := new([2]workspace)
	good, spare := &ws[0], &ws[1]
	good.reserve(len(reqs))
	spare.reserve(len(reqs))
	lastGood, _, err := admitAll(reqs, rates, shapes, cfg, opts, good)
	if err != nil {
		return nil, fmt.Errorf("%w: infeasible even at token rates: %v", ErrTargetInfeasible, err)
	}
	goodRates := append([]float64(nil), rates...)

	proposal := make([]float64, len(reqs))
	const maxIters = 120
	for iter := 0; iter < maxIters; iter++ {
		// Propose rates that would meet the remaining targets.
		copy(proposal, goodRates)
		progress := false
		for i, dr := range reqs {
			pf, ok := lastGood.Find(dr.Request.ID)
			if !ok {
				return nil, fmt.Errorf("%w: flow %d lost", ErrTargetInfeasible, dr.Request.ID)
			}
			if pf.Bound <= dr.Target {
				continue
			}
			needed, err := gs.RequiredRate(dr.Request.Spec, dr.Target, pf.Terms)
			if err != nil {
				// Target below D: push the rate as high as the
				// growth step allows.
				needed = goodRates[i] * 1.5
			} else {
				// RequiredRate speaks in effective rate; reserve
				// 1/s more to deliver it through the interference.
				needed /= cfg.successProbFor(dr.Request)
			}
			if needed <= goodRates[i] {
				needed = goodRates[i] * 1.02
			}
			// Bound the growth per iteration so backtracking can
			// find the feasibility edge.
			if limit := goodRates[i] * 1.5; needed > limit {
				needed = limit
			}
			if needed > goodRates[i]*1.0005 {
				proposal[i] = needed
				progress = true
			}
		}
		if !progress {
			return lastGood.detach(), nil
		}
		// Backtrack toward the last feasible rates if rejected,
		// halving the proposal's step in place.
		feasible := (*Controller)(nil)
		for bt := 0; bt < 20; bt++ {
			c, _, err := admitAll(reqs, proposal, shapes, cfg, opts, spare)
			if err == nil {
				feasible = c
				break
			}
			moved := false
			for i := range proposal {
				proposal[i] = (proposal[i] + goodRates[i]) / 2
				if proposal[i] > goodRates[i]*1.0001 {
					moved = true
				}
			}
			if !moved {
				break
			}
		}
		if feasible == nil {
			return lastGood.detach(), nil // pinned at the feasibility edge
		}
		lastGood = feasible
		good, spare = spare, good
		for i := range goodRates {
			if pf, ok := feasible.Find(reqs[i].Request.ID); ok {
				goodRates[i] = pf.Request.Rate
			}
		}
	}
	return lastGood.detach(), nil
}

// admitAll admits every request, at its rate in rates, into ws's trial
// controller, emptied first, in order. shapes holds each request's
// rate-independent parameters across the trials of one planning call. On a
// refusal it returns the refused request's index with the error. The
// returned controller's plan lives in ws until its next admitAll.
func admitAll(reqs []DelayRequest, rates []float64, shapes []Params, cfg Config, opts []ControllerOption, ws *workspace) (*Controller, int, error) {
	c := &ws.ctrl
	c.reset(cfg, opts)
	for i, dr := range reqs {
		req := dr.Request
		req.Rate = rates[i]
		groups, _, err := c.plan(req, &shapes[i], ws)
		if err != nil {
			return nil, i, err
		}
		// The next plan reads this one and writes the other turn.
		c.groups = groups
		ws.turn ^= 1
	}
	return c, 0, nil
}
