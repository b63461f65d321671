package bmc

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"emmver/internal/aig"
	"emmver/internal/obs"
	"emmver/internal/par"
	"emmver/internal/share"
)

// CheckManyParallel verifies many reachability properties of one design
// concurrently: a pool of jobs workers (jobs <= 0 selects NumCPU) pulls
// properties off a shared queue, and each worker owns a private
// unrolling/solver engine against the shared read-only netlist. Workers
// cooperate through the forward-termination oracle: the forward check is
// property-independent and its UNSAT answer is upward-closed in depth, so
// the first worker to hit UNSAT publishes that depth and every other worker
// reaching it resolves its property instantly as a forward proof — the
// paper's "10 induction proofs in < 1 s" effect, now paid for once.
//
// Each property runs the same per-depth driver as CheckMany, on its
// worker's engine, with the shared oracle as that engine's forward hook.
// Outcomes are deterministic: every per-property verdict (Kind, Depth,
// ProofSide) equals what the sequential CheckMany computes, because SAT
// answers are semantic and at most one verdict class can fire per depth.
// Only timeout placement and witness input values (which always replay) may
// vary between runs.
func CheckManyParallel(n *aig.Netlist, props []int, opt Options, jobs int) *ManyResult {
	return CheckManyParallelCtx(context.Background(), n, props, opt, jobs)
}

// CheckManyParallelCtx is CheckManyParallel under a cancellation context.
// Options.Timeout is converted into a deadline on the shared context so the
// whole fleet stops at the same wall-clock instant.
func CheckManyParallelCtx(ctx context.Context, n *aig.Netlist, props []int, opt Options, jobs int) *ManyResult {
	start := time.Now()
	out := &ManyResult{Results: make([]*Result, len(props))}
	if len(props) == 0 {
		return out
	}
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
		opt.Timeout = 0
	}
	// Compile once before the fleet spawns: every worker engine unrolls
	// the same reduced netlist, and results are back-mapped after the
	// fan-in below.
	c := compileModel(n, props, &opt)
	n, props = c.n, c.props
	jobs = par.Jobs(jobs)
	if opt.Cube && len(props) == 1 && jobs > 1 && shareEligible(n, opt) {
		// A single property leaves the property-fleet idle; hand the whole
		// worker budget to the cube-and-conquer splitter instead.
		r := checkCubed(ctx, n, props[0], opt, jobs)
		out.Stats = r.Stats
		out.DepthStats = r.DepthStats
		out.Results[0] = r
		out.finish(c, opt)
		return out
	}
	if jobs > len(props) {
		jobs = len(props)
	}
	if jobs > 1 {
		opt.Log = par.SyncWriter(opt.Log)
	}

	// The sharing bus connects the workers' solvers when the run is
	// eligible (no PBA tracing, no environment constraints): lemmas over
	// frame values and EMM comparators transfer between workers even when
	// they are solving different properties, because the shared clause
	// database is property-independent. Forward and backward windows get
	// separate buses (different execution sets).
	var fwd, bwd *share.Bus
	if opt.Share && jobs > 1 && shareEligible(n, opt) {
		fwd, bwd = newBuses(jobs, opt)
	}

	// Reusing one engine per worker across properties is a conservative
	// extension only when the design asserts no environment constraints:
	// everything else the engine adds (Tseitin definitions, EMM clauses,
	// loop-free-path structure) is total and property-independent, whereas
	// asserted constraint units would leak between properties if the
	// per-property runs were meant to differ. No design in this repo hits
	// the fallback, but correctness must not depend on that.
	reuse := len(n.Constraints) == 0

	engines := make([]*engine, jobs)
	workerStats := make([]Stats, jobs)
	workerDepths := make([][]DepthStat, jobs)
	retire := func(w int, e *engine) {
		workerStats[w].Add(e.snapshotStats())
		workerDepths[w] = addDepthStats(workerDepths[w], e.depthStats)
	}
	// The fleet's forward oracle: the first forward-UNSAT depth any worker
	// found, shared by every worker engine (see forwardCheck).
	var fwdUnsat atomic.Int64
	fwdUnsat.Store(math.MaxInt64)

	par.ForEachObs(ctx, opt.Obs, "bmc.prop", jobs, len(props), func(ctx context.Context, w, pi int) {
		e := engines[w]
		if e == nil || !reuse {
			if e != nil {
				retire(w, e)
			}
			// Each worker's engine carries a derived observer tagged with
			// the worker index, so every span it emits (depth steps, solver
			// calls) is attributable to its worker goroutine in the journal.
			wopt := opt
			wopt.Obs = opt.Obs.With(obs.F("worker", w))
			e = newEngine(ctx, n, props[pi], wopt)
			e.fwdUnsat = &fwdUnsat
			attachShare(e, fwd, bwd, w)
			engines[w] = e
		}
		// Each result carries its property's wall time; the solver-level
		// counters are aggregated per worker instead (ManyResult.Stats).
		t0 := time.Now()
		r := checkCompiled(e.strategyFor(), props[pi:pi+1], e)[0]
		r.Stats.Elapsed = time.Since(t0)
		out.Results[pi] = r
	})

	for w, e := range engines {
		if e != nil {
			retire(w, e)
		}
		out.Stats.Add(workerStats[w])
		out.DepthStats = addDepthStats(out.DepthStats, workerDepths[w])
	}
	addBusStats(&out.Stats, fwd, bwd)
	if fwd != nil {
		publishCoopObs(opt.Obs, &out.Stats)
	}
	out.Stats.Elapsed = time.Since(start)
	out.finish(c, opt)
	return out
}
