// The Strategy layer: the decision procedure that drives the per-depth
// checks over a prepared Model (model.go) and Session (session.go). Each
// strategy decides which solver queries to issue at depth k and how to
// interpret their answers. There is one per-depth driver (checkCompiled):
// every entry point — Check, CheckMany, each property of
// CheckManyParallel, the cube fleet and the distributed worker — runs it,
// and it owns frame extension, warm-start gating, inprocessing, DepthStats
// and observability. An execution mode only changes how the engine answers
// a query (engine.ceQuery, the shared forward oracle), so a strategy is
// exactly the paper-visible difference between engines.

package bmc

import (
	"context"

	"emmver/internal/sat"
)

// Strategy is one verification decision procedure. checkCompiled calls
// Step once per depth and unresolved property (the engine's prop), in
// increasing depth order, after the Model has extended every window's
// unrolling and EMM constraints to k.
type Strategy interface {
	// Name labels the strategy in per-depth trace spans and logs.
	Name() string
	// Step runs the depth-k checks and returns (result, true) when the run
	// is decided, or (nil, false) to deepen. Cancellation is polled through
	// the Session's solver interrupt hooks; ctx is the run context those
	// hooks watch.
	Step(ctx context.Context, k int) (*Result, bool)
}

// strategyFor selects the Strategy the options ask for. The capability
// resolver in internal/spec guarantees specs only reach combinations
// listed here; Options-level callers get the closest sequential flow.
func (e *engine) strategyFor() Strategy {
	switch {
	case e.opt.KInduction && e.opt.Proofs:
		return &kindStrategy{e}
	case e.opt.Proofs && e.opt.Portfolio:
		return &portfolioStrategy{e}
	default:
		return &bmcStrategy{e}
	}
}

// bmcStrategy is the paper's sequential per-depth flow, shared by BMC-1,
// BMC-2, BMC-3, and PBA phase 1: forward termination, backward
// termination (when Proofs is on), then the counter-example check through
// the engine's ceQuery hook, with the PBA tracker fed after an UNSAT CE
// answer. Over a property set the forward check is answered once per
// depth: forwardCheck memoizes it for the later properties.
type bmcStrategy struct{ e *engine }

func (s *bmcStrategy) Name() string { return "bmc" }

func (s *bmcStrategy) Step(_ context.Context, k int) (*Result, bool) {
	e := s.e
	prop := e.prop
	if e.opt.Proofs {
		switch e.forwardCheck(k) {
		case sat.Unsat:
			e.logf("depth %d: forward termination", k)
			return &Result{Kind: KindProof, Depth: k, ProofSide: "forward"}, true
		case sat.Unknown:
			return &Result{Kind: KindTimeout, Depth: k}, true
		}
		switch e.backwardCheck(prop, k) {
		case sat.Unsat:
			e.logf("depth %d: backward termination", k)
			return &Result{Kind: KindProof, Depth: k, ProofSide: "backward"}, true
		case sat.Unknown:
			return &Result{Kind: KindTimeout, Depth: k}, true
		}
	}
	if r := e.ceQuery(prop, k); r != nil {
		return r, true
	}
	if e.opt.PBA {
		e.obsPBAUpdate(k)
	}
	r := e.noCE(k)
	return r, r != nil
}

// noCE closes depth k after every check came back inconclusive. Under
// PBA it reports KindStable once the latch-reason set has been stable for
// StabilityDepth depths (StopAtStable); otherwise it returns nil.
func (e *engine) noCE(k int) *Result {
	if !e.opt.PBA {
		e.logf("depth %d: no CE", k)
		return nil
	}
	e.logf("depth %d: no CE, |LR|=%d (stable %d)", k, e.tracker.Size(), e.tracker.StableFor(k))
	if e.opt.StopAtStable && e.tracker.StableFor(k) >= e.opt.StabilityDepth {
		return &Result{Kind: KindStable, Depth: k}
	}
	return nil
}
