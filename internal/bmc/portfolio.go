package bmc

import (
	"context"

	"emmver/internal/obs"
	"emmver/internal/par"
	"emmver/internal/sat"
)

// portfolioStrategy races the depth-k checks on the engine's two solvers:
// the forward lane owns fs (forward termination, then the counter-example
// check) and the backward lane owns bs (backward termination). The first
// decisive verdict cancels the other lane via the solver interrupt hook.
//
// Verdict classes cannot conflict across lanes: a counter-example at depth
// k is shortest (earlier depths already passed), hence loop-free with the
// property holding at frames 0..k-1, so it satisfies both termination
// queries — a CE excludes forward and backward UNSAT at the same depth.
// The only genuine tie is forward and backward both proving, which
// par.First breaks toward the forward lane, matching sequential order.
type portfolioStrategy struct{ e *engine }

func (s *portfolioStrategy) Name() string { return "portfolio" }

// Step runs both lanes. Each lane reports a decisive verdict, a KindTimeout
// for an interrupted solver call, or nil when its checks were inconclusive.
func (s *portfolioStrategy) Step(_ context.Context, k int) (*Result, bool) {
	e := s.e
	prop := e.prop
	timeout := &Result{Kind: KindTimeout, Depth: k}
	fwdLane := func(ctx context.Context) (*Result, bool) {
		sp := e.obs.Span("bmc.lane", obs.F("lane", "forward"), obs.F("depth", k))
		defer sp.End()
		defer e.armSolver(e.fs, ctx)()
		if cs := e.lazySolver(); cs != nil {
			// The forward lane also owns the CE check, which under the
			// lazy proof split runs on its own solver.
			defer e.armSolver(cs, ctx)()
		}
		switch e.forwardCheck(k) {
		case sat.Unsat:
			return &Result{Kind: KindProof, Depth: k, ProofSide: "forward"}, true
		case sat.Unknown:
			return timeout, false
		}
		// The model lives on fs, which this lane owns exclusively: ceStep
		// decodes the witness before anything else can touch the solver.
		if r := e.ceStep(prop, k); r != nil {
			return r, r.Kind != KindTimeout
		}
		if e.opt.PBA {
			// The UNSAT core is only valid until the next fs solve; the
			// tracker is touched by this lane alone.
			e.obsPBAUpdate(k)
		}
		return nil, false
	}
	bwdLane := func(ctx context.Context) (*Result, bool) {
		sp := e.obs.Span("bmc.lane", obs.F("lane", "backward"), obs.F("depth", k))
		defer sp.End()
		defer e.armSolver(e.bs, ctx)()
		switch e.backwardCheck(prop, k) {
		case sat.Unsat:
			return &Result{Kind: KindProof, Depth: k, ProofSide: "backward"}, true
		case sat.Unknown:
			return timeout, false
		}
		return nil, false
	}

	win, outs := par.First(e.ctx, fwdLane, bwdLane)
	if win >= 0 {
		r := outs[win]
		if r.Kind == KindProof {
			e.logf("depth %d: %s termination", k, r.ProofSide)
		}
		return r, true
	}
	if outs[0] != nil || outs[1] != nil {
		return timeout, true
	}
	// Both lanes ran to completion without a verdict — forward SAT, no CE,
	// backward SAT — exactly the sequential "no CE at this depth" outcome.
	r := e.noCE(k)
	return r, r != nil
}
