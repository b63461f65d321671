package bmc

// EMM-aware cube-and-conquer. The per-depth counter-example check is
// partitioned over the EMM address-comparator variables: a cube is a
// polarity assignment to a prefix of the comparators in creation order
// (creation order is a pure function of the netlist and the depth sequence,
// so lockstep workers agree on what "comparator k" means without any
// coordination), and the 2^w initial cubes over the first w comparators are
// an exhaustive case split of the search space. Each cube is solved under
// assumptions by a fleet worker pulling from a work-stealing queue; a cube
// that exceeds its conflict budget is split on the next comparator index
// into two children (still an exhaustive refinement), or — when the split
// variables are used up — re-solved without a budget.
//
// Why address comparators: on EMM-encoded designs the refutation of ¬P at
// each depth is dominated by address-match case analysis (the (4m+2n+1)kW·R
// comparator chains of the paper's §4.1). Fixing comparator polarities
// collapses the forwarding logic per cube, and — with the sharing bus on —
// the comparator-level lemmas one worker learns transfer to every other
// worker's cubes through their canonical identity.
//
// Verdict determinism: the cubes at each depth partition the assignment
// space, so "every cube UNSAT" equals the sequential UNSAT and "some cube
// SAT" yields a counter-example at the same (first) depth the sequential
// engine would report. Only which witness is found may vary, as in the
// existing portfolio.

import (
	"context"
	"sync"
	"time"

	"emmver/internal/aig"
	"emmver/internal/obs"
	"emmver/internal/par"
	"emmver/internal/sat"
	"emmver/internal/share"
)

// cubeConflictBudget is the per-cube conflict budget before a cube is
// refined by splitting. A variable so tests can force splits on tiny
// designs.
var cubeConflictBudget int64 = 2000

// cubeMaxInitialWidth caps the initial split width (2^w seed cubes).
const cubeMaxInitialWidth = 10

// shareRingCapacity is the default per-worker clause ring size
// (Options.ShareCap overrides); see share.Ring for why overrun is harmless.
const shareRingCapacity = 4096

// ringCapacity resolves the effective ring size for an option set.
func ringCapacity(opt Options) int {
	if opt.ShareCap > 0 {
		return opt.ShareCap
	}
	return shareRingCapacity
}

// cubeJob is one queue entry: comparator polarities for indices
// [0, len(signs)) plus the worker that produced it (-1 for seed cubes), so
// the queue can count work-stealing.
type cubeJob struct {
	signs []bool
	owner int
}

// cubeQueue is the depth-local work-stealing queue: a LIFO stack (children
// of a split are hot in their producer's clause database, and LIFO gets
// them — or a stealing peer — back onto a solver quickly) with an active
// count so consumers can tell "momentarily empty" from "all cubes
// resolved".
type cubeQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []cubeJob
	active int
	closed bool
	splits int64
	stolen int64
}

func newCubeQueue() *cubeQueue {
	q := &cubeQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// pop blocks until a cube is available (returning it and marking it
// active), every cube is resolved, or the queue is closed. The two latter
// cases return false.
func (q *cubeQueue) pop(self int) (cubeJob, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return cubeJob{}, false
		}
		if n := len(q.items); n > 0 {
			it := q.items[n-1]
			q.items = q.items[:n-1]
			q.active++
			if it.owner >= 0 && it.owner != self {
				q.stolen++
			}
			return it, true
		}
		if q.active == 0 {
			return cubeJob{}, false
		}
		q.cond.Wait()
	}
}

// push adds a cube produced by worker self.
func (q *cubeQueue) push(signs []bool, self int) {
	q.mu.Lock()
	q.items = append(q.items, cubeJob{signs: signs, owner: self})
	q.mu.Unlock()
	q.cond.Broadcast()
}

// split replaces the popped cube cb with its two children on the next
// comparator index and releases cb's active slot.
func (q *cubeQueue) split(cb cubeJob, self int) {
	lo := append(append([]bool(nil), cb.signs...), false)
	hi := append(append([]bool(nil), cb.signs...), true)
	q.mu.Lock()
	q.items = append(q.items, cubeJob{signs: lo, owner: self}, cubeJob{signs: hi, owner: self})
	q.active--
	q.splits++
	q.mu.Unlock()
	q.cond.Broadcast()
}

// done releases a popped cube's active slot (the cube was resolved).
func (q *cubeQueue) done() {
	q.mu.Lock()
	q.active--
	wake := q.active == 0 && len(q.items) == 0
	q.mu.Unlock()
	if wake {
		q.cond.Broadcast()
	}
}

// close wakes every blocked consumer and makes further pops fail; used for
// cancellation (a decisive answer or an expired budget).
func (q *cubeQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// checkCubed runs one (compiled) property on a cube-and-conquer fleet: the
// per-depth driver advances jobs worker engines in lockstep, the bmc
// ladder's termination proofs run on engine 0, and engine 0's ceQuery fans
// the counter-example check out over the cube queue. Callers have verified
// shareEligible and jobs > 1.
func checkCubed(ctx context.Context, n *aig.Netlist, prop int, opt Options, jobs int) *Result {
	// Cube-and-conquer splits the search over the deterministic eager
	// comparator creation order; demand-driven instantiation would make
	// that order model-dependent and diverge across workers. The spec
	// layer's capability resolver rejects lazy×cube before it gets here
	// (spec.CapCube vs CapLazy); this reset enforces the same invariant
	// for direct Options-level callers.
	opt.LazyEMM = false
	runCtx, cancel := fleetContext(ctx, &opt)
	defer cancel()
	opt.Log = par.SyncWriter(opt.Log)

	var fwd, bwd *share.Bus
	if opt.Share {
		fwd, bwd = newBuses(jobs, opt)
	}
	engines := make([]*engine, jobs)
	for w := range engines {
		wopt := opt
		wopt.Obs = opt.Obs.With(obs.F("worker", w))
		e := newEngine(runCtx, n, prop, wopt)
		if e.fg != nil {
			e.fg.TrackComparators = true
		}
		attachShare(e, fwd, bwd, w)
		engines[w] = e
	}
	e0 := engines[0]
	var splits, stolen int64
	e0.ceQuery = func(prop, k int) *Result {
		return cubeCECheck(runCtx, cancel, engines, prop, k, &splits, &stolen)
	}
	r := e0.finish(checkCompiled(&bmcStrategy{e0}, []int{prop}, engines...)[0])
	r.Stats = Stats{Elapsed: time.Since(e0.start), CubeSplits: splits, CubeStolen: stolen}
	for _, e := range engines {
		r.Stats.Add(e.snapshotStats())
	}
	addBusStats(&r.Stats, fwd, bwd)
	publishCoopObs(opt.Obs, &r.Stats)
	return r
}

// cubeCECheck fans the depth-i counter-example check out over the cube
// queue. Returns a decisive Result (CE or timeout), or nil when every cube
// is UNSAT (no CE at this depth). cancel tears the fleet down on the first
// decisive answer so in-flight cube solves stop at their next interrupt
// poll.
func cubeCECheck(ctx context.Context, cancel context.CancelFunc, engines []*engine, prop, depth int, splits, stolen *int64) *Result {
	jobs := len(engines)
	nComp := engines[0].comparators()
	for _, e := range engines[1:] {
		nComp = min(nComp, e.comparators())
	}
	w := 0
	for (1<<w) < 2*jobs && w < nComp && w < cubeMaxInitialWidth {
		w++
	}
	q := newCubeQueue()
	for m := 0; m < 1<<w; m++ {
		signs := make([]bool, w)
		for k := range signs {
			signs[k] = m&(1<<k) != 0
		}
		q.push(signs, -1)
	}
	stop := context.AfterFunc(ctx, q.close)
	defer stop()

	var out struct {
		mu sync.Mutex
		r  *Result
	}
	decide := func(r *Result) {
		out.mu.Lock()
		if out.r == nil {
			out.r = r
		}
		out.mu.Unlock()
		cancel()
	}
	par.ForEach(ctx, jobs, jobs, func(ctx context.Context, _, self int) {
		cubeWorker(ctx, engines[self], self, q, prop, depth, nComp, decide)
	})
	q.mu.Lock()
	*splits += q.splits
	*stolen += q.stolen
	q.mu.Unlock()
	return out.r
}

// cubeWorker pulls cubes until the queue drains or the run is decided.
func cubeWorker(ctx context.Context, e *engine, self int, q *cubeQueue, prop, depth, nComp int, decide func(*Result)) {
	for {
		cb, ok := q.pop(self)
		if !ok {
			return
		}
		st, split := e.refineCube(prop, depth, cb.signs, nComp)
		if split {
			q.split(cb, self)
			continue
		}
		switch st {
		case sat.Unsat:
			q.done()
		case sat.Sat:
			// Extract before anything else touches this engine's solver:
			// the model lives in the worker's own fs.
			e.logf("depth %d: counter-example (cube worker %d)", depth, self)
			decide(&Result{Kind: KindCE, Depth: depth, Witness: e.extractWitness(depth)})
			q.done()
			return
		default:
			// Unknown with the run budget gone: either a genuine timeout or
			// a sibling's decisive answer cancelled us — decide() is
			// first-wins, so a stale timeout record loses to the real
			// verdict.
			decide(&Result{Kind: KindTimeout, Depth: depth})
			q.done()
			return
		}
	}
}

// refineCube solves a cube under the conflict budget. A cube that exceeds
// it asks to be split (split=true) while comparator indices remain, and
// is otherwise solved to completion.
func (e *engine) refineCube(prop, depth int, signs []bool, nComp int) (st sat.Status, split bool) {
	st = e.solveCube(prop, depth, signs, cubeConflictBudget)
	if st == sat.Unknown && !e.timedOut() {
		if len(signs) < nComp {
			return st, true
		}
		st = e.solveCube(prop, depth, signs, 0)
	}
	return st, false
}

// comparators is the number of EMM address comparators the forward window
// has created so far: the cube split variables, in creation order.
func (e *engine) comparators() int {
	if e.fg == nil {
		return 0
	}
	return len(e.fg.CompLits())
}

// solveCube runs the depth-i counter-example check under the cube's
// comparator assumptions with the given conflict budget (0 = none).
func (e *engine) solveCube(prop, depth int, signs []bool, budget int64) sat.Status {
	sp := e.obs.Span("solve.cube", obs.F("depth", depth), obs.F("width", len(signs)))
	var comp []sat.Lit
	if e.fg != nil {
		comp = e.fg.CompLits()
	}
	assumps := make([]sat.Lit, 0, len(signs)+1)
	assumps = append(assumps, e.fu.PropertyLit(prop, depth).Not())
	for k, neg := range signs {
		assumps = append(assumps, comp[k].XorSign(neg))
	}
	old := e.fs.ConflictBudget
	e.fs.ConflictBudget = budget
	st := e.solve(e.fs, assumps...)
	e.fs.ConflictBudget = old
	sp.End(obs.F("result", st.String()))
	return st
}

// newBuses creates a fleet's clause-sharing buses: one for the forward
// windows and, with Proofs, one for the backward windows (they describe
// different execution sets).
func newBuses(workers int, opt Options) (fwd, bwd *share.Bus) {
	fwd = share.NewBus(workers, ringCapacity(opt))
	if opt.Proofs {
		bwd = share.NewBus(workers, ringCapacity(opt))
	}
	return fwd, bwd
}

// fleetContext derives a cube or distributed fleet's run context: its
// cancel tears the fleet down once the outcome is decided, and opt.Timeout
// becomes a deadline on it (cleared from opt) so the whole fleet stops at
// the same wall-clock instant.
func fleetContext(ctx context.Context, opt *Options) (context.Context, context.CancelFunc) {
	if opt.Timeout <= 0 {
		return context.WithCancel(ctx)
	}
	d := opt.Timeout
	opt.Timeout = 0
	return context.WithTimeout(ctx, d)
}

// addBusStats folds the buses' fleet-wide tallies into st.
func addBusStats(st *Stats, buses ...*share.Bus) {
	for _, b := range buses {
		if b == nil {
			continue
		}
		st.SharedExported += b.Exported()
		st.SharedImported += b.Imported()
		st.SharedFiltered += b.Filtered()
		st.SharedDropped += b.Dropped()
	}
}

// publishCoopObs mirrors the cooperative-solving tallies onto the metrics
// registry (no-op when detached).
func publishCoopObs(o *obs.Observer, st *Stats) {
	reg := o.Registry()
	if reg == nil {
		return
	}
	reg.Counter(obs.MShareExported).Add(st.SharedExported)
	reg.Counter(obs.MShareImported).Add(st.SharedImported)
	reg.Counter(obs.MShareFiltered).Add(st.SharedFiltered)
	reg.Counter(obs.MShareDropped).Add(st.SharedDropped)
	reg.Counter(obs.MCubeSplits).Add(st.CubeSplits)
	reg.Counter(obs.MCubeStolen).Add(st.CubeStolen)
}
