package bmc

// Distributed cube-and-conquer: this process runs ONE worker engine of a
// multi-process fleet, with the cube queue and clause bus of cube.go
// replaced by a sharenet broker. Depths advance in fleet-wide lockstep
// (the broker releases a depth only when every cube is refuted), the
// broker-assigned worker 0 runs the termination proofs its peers skip, and
// the first decisive answer — a SAT cube, a proof, a timeout — finishes
// everyone, exactly mirroring the in-process first-wins decide.
//
// Soundness is inherited wholesale: the cubes the broker leases are the
// same exhaustive comparator-prefix partition cubeCECheck seeds (the
// broker reuses the seed-width formula with the fleet size as the job
// count), a cube result is a deterministic fact about the shared formula
// (so lease reassignment after a worker death can at worst duplicate
// work), and clauses cross processes in the same canonical coding they
// cross goroutines in — the wire adds loss, never invention.

import (
	"context"
	"fmt"

	"emmver/internal/aig"
	"emmver/internal/sat"
	"emmver/internal/share"
	"emmver/internal/sharenet"
)

// DistEligible reports whether a run can join a distributed fleet: one
// property, no PBA tracing, no environment constraints — the same rules as
// in-process sharing/cubing, which the socket changes nothing about.
func DistEligible(n *aig.Netlist, opt Options) error {
	if opt.PBA {
		return fmt.Errorf("bmc: distributed solving excludes PBA (imported clauses have no proof derivation)")
	}
	if opt.LazyEMM {
		return fmt.Errorf("bmc: distributed solving excludes demand-driven EMM instantiation (cube leases and the broker's intern table assume the eager comparator order); drop -lazy")
	}
	if len(n.Constraints) > 0 {
		return fmt.Errorf("bmc: distributed solving excludes designs with environment constraints")
	}
	return nil
}

// CheckDist runs property prop of n as this process's share of a
// distributed fleet, pulling cubes from (and pushing lemmas through) the
// given client. Every process of the fleet must run the same netlist,
// property, and options. The returned result carries a witness only in the
// process whose engine found the counter-example; the others report the
// fleet verdict with a nil Witness.
func CheckDist(n *aig.Netlist, prop int, opt Options, cl *sharenet.Client) (*Result, error) {
	return CheckDistCtx(context.Background(), n, prop, opt, cl)
}

// CheckDistCtx is CheckDist under a cancellation context.
func CheckDistCtx(ctx context.Context, n *aig.Netlist, prop int, opt Options, cl *sharenet.Client) (*Result, error) {
	c := compileModel(n, []int{prop}, &opt)
	if err := DistEligible(c.n, opt); err != nil {
		return nil, err
	}
	r, err := checkDist(ctx, c.n, c.props[0], opt, cl)
	if err != nil {
		return nil, err
	}
	return c.finish(r, prop, opt), nil
}

// checkDist runs this process's worker of a distributed fleet on the
// compiled netlist: the per-depth driver with the bmc ladder, whose
// ceQuery is the broker's lease/solve/report cycle (distCubeLoop).
func checkDist(ctx context.Context, n *aig.Netlist, prop int, opt Options, cl *sharenet.Client) (*Result, error) {
	// The broker leases cubes from depth 0 and advances one depth at a
	// time, so every worker must ask at every depth.
	opt.StartDepth = 0
	runCtx, cancel := fleetContext(ctx, &opt)
	defer cancel()
	// A fleet verdict (wherever it was found) interrupts this worker's
	// in-flight solve at its next poll.
	cl.OnVerdict(func(sharenet.Verdict) { cancel() })

	var fwd, bwd *share.Bus
	if opt.Share {
		fwd, bwd = newBuses(1, opt)
		cl.AttachBus(0, fwd)
		if bwd != nil {
			cl.AttachBus(1, bwd)
		}
	}
	e := newEngine(runCtx, n, prop, opt)
	if e.fg != nil {
		e.fg.TrackComparators = true
	}
	attachShare(e, fwd, bwd, 0)
	// Only the broker-assigned worker 0 runs the termination proofs; its
	// peers keep the backward window (and its bus) but skip the checks.
	e.opt.Proofs = opt.Proofs && cl.WorkerID() == 0

	var linkErr error
	e.ceQuery = func(prop, k int) *Result {
		r, err := distCubeLoop(e, cl, prop, k, e.comparators())
		if err != nil {
			linkErr = err
			return &Result{Kind: KindTimeout, Depth: k}
		}
		return r
	}

	r := e.finish(checkCompiled(&bmcStrategy{e}, []int{prop}, e)[0])
	switch {
	case linkErr != nil:
		return nil, linkErr
	case r.Witness != nil:
		// This worker's counter-example; distCubeLoop told the fleet.
	case r.Kind == KindProof:
		// A termination proof: this is the proof worker.
		cl.SendVerdict(sharenet.Verdict{Kind: sharenet.VerdictProof, Depth: r.Depth, Side: r.ProofSide})
	default:
		// Stopped without a local verdict — a timeout, a verdict found
		// elsewhere, or an advance that raced the broker's finish at
		// MaxDepth: report what the fleet concluded (first verdict wins).
		v, ok := cl.Verdict()
		if !ok {
			// This worker timed out first (tell the fleet), or the
			// transport is gone: it can only report how far it got.
			v = sharenet.Verdict{Kind: sharenet.VerdictTimeout, Depth: r.Depth}
			if r.Kind == KindTimeout {
				cl.SendVerdict(v)
			}
		}
		r.Kind, r.Depth, r.ProofSide = KindTimeout, v.Depth, v.Side
		switch v.Kind {
		case sharenet.VerdictCE:
			r.Kind = KindCE
		case sharenet.VerdictNoCE:
			r.Kind = KindNoCE
		case sharenet.VerdictProof:
			r.Kind = KindProof
		}
	}
	addBusStats(&r.Stats, fwd, bwd)
	publishCoopObs(opt.Obs, &r.Stats)
	return r, nil
}

// distCubeLoop runs one depth's lease/solve/report cycle. It returns nil
// when the fleet advances to depth+1 (every cube refuted), this worker's
// counter-example, or a KindTimeout stop when the fleet is decided
// elsewhere or this worker was interrupted; checkDist then reports the
// fleet verdict.
func distCubeLoop(e *engine, cl *sharenet.Client, prop, depth, nComp int) (*Result, error) {
	stop := &Result{Kind: KindTimeout, Depth: depth}
	for {
		if _, ok := cl.Verdict(); ok {
			return stop, nil
		}
		resp, err := cl.RequestWork(depth, nComp)
		if err != nil {
			return nil, fmt.Errorf("bmc: fleet link lost at depth %d: %w", depth, err)
		}
		switch resp.Kind {
		case sharenet.WorkAdvance:
			if resp.Depth != depth+1 {
				return nil, fmt.Errorf("bmc: broker advanced %d -> %d", depth, resp.Depth)
			}
			return nil, nil
		case sharenet.WorkFinish:
			return stop, nil
		case sharenet.WorkLease:
			signs, err := parseSigns(resp.Signs)
			if err != nil {
				return nil, err
			}
			st, split := e.refineCube(prop, depth, signs, nComp)
			if split {
				if err := cl.SendResult(depth, resp.Signs, true); err != nil {
					return nil, err
				}
				continue
			}
			switch st {
			case sat.Unsat:
				if err := cl.SendResult(depth, resp.Signs, false); err != nil {
					return nil, err
				}
			case sat.Sat:
				// Extract before anything else touches this solver: the
				// model lives here, and only here — peers get the verdict.
				wit := e.extractWitness(depth)
				e.logf("depth %d: counter-example (distributed worker %d)", depth, cl.WorkerID())
				cl.SendVerdict(sharenet.Verdict{Kind: sharenet.VerdictCE, Depth: depth})
				return &Result{Kind: KindCE, Depth: depth, Witness: wit}, nil
			default:
				// Interrupted: a fleet verdict cancelled us, or this
				// worker's own budget expired.
				return stop, nil
			}
		default:
			return nil, fmt.Errorf("bmc: unknown work response kind %d", resp.Kind)
		}
	}
}

// parseSigns decodes a broker cube key ('0'/'1' per comparator index).
func parseSigns(s string) ([]bool, error) {
	signs := make([]bool, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			signs[i] = true
		default:
			return nil, fmt.Errorf("bmc: corrupt cube key %q", s)
		}
	}
	return signs, nil
}

// DistWorkerHello builds the client hello for a CheckDist run: the broker
// learns the bound (for the NO_CE depth) and whether this worker would run
// termination proofs if assigned slot 0.
func DistWorkerHello(opt Options) (maxDepth int, proofs bool) {
	return opt.MaxDepth, opt.Proofs
}
