package main

import (
	"fmt"
	"math/rand"
	"time"

	"emmver"
	"emmver/internal/bmc"
	"emmver/internal/designs"
	"emmver/internal/exp"
	"emmver/internal/obs"
)

// solverInstance is one solver workload unit: a fixed problem built at
// set-up, solved end to end through the emmver facade, and checked
// against the expected-verdict table.
type solverInstance interface {
	// run solves the instance through the facade (the timed part). A
	// traced run passes an observer, which the facade calls hand to the
	// engine as Options.Obs; nil leaves the engine unobserved.
	run(ob *emmver.Observer)
	// check validates the last run: verdict kinds, depths, proof sides,
	// counts, the PBA kept set, and a replay of every counter-example on
	// the source netlist. It returns one line per problem.
	check(replay replayFunc) []string
	// counts sums the public counters of the last run.
	counts() counters
	// depthEMM lists the last run's per-depth EMM clause counts
	// (DepthStats), over all its facade calls in order.
	depthEMM() []int
}

// replayFunc replays a counter-example on the netlist it refers to.
type replayFunc func(w *emmver.Witness, n *emmver.Netlist, prop int) error

func replayDirect(w *emmver.Witness, n *emmver.Netlist, prop int) error { return w.Replay(n, prop) }

// newInstance builds a workload's instance. traced asks the facade runs
// for per-depth statistics, which the traced run compares between its
// observed and unobserved runs; the end-to-end runs leave them off.
type newInstance func(seed int64, traced bool) solverInstance

// plainSolver measures a solver workload end to end: repeated set-up,
// then instances until the budget is spent, each checked after timing.
func plainSolver(mk newInstance) func(runConfig) outcome {
	return func(cfg runConfig) outcome {
		var o outcome
		inst, setup := repeatSetup(func() solverInstance { return mk(cfg.seed, false) })
		var times, allocs []float64
		var slowest time.Duration
		start := time.Now()
		for keepGoing(start, cfg.budget, len(times), 3, slowest) {
			var crash []string
			dt, mb := measured(func() { crash = guard(func() { inst.run(nil) }) })
			slowest = max(slowest, dt)
			times = append(times, dt.Seconds())
			allocs = append(allocs, mb)
			fmt.Printf("instance %d: %.4fs %.1fMB\n", len(times), dt.Seconds(), mb)
			problems := crash
			if len(crash) == 0 {
				problems = inst.check(replayDirect)
			}
			o.fail(fmt.Sprintf("instance %d", len(times)), problems)
		}
		o.set("setup_s", "s", setup)
		o.set("check_s", "s", median(times))
		o.set("alloc_mb", "MB", median(allocs))
		// A solver caller submits one instance and waits for its verdicts,
		// so its requests are the instances themselves.
		o.set("req_p50_ms", "ms", 1000*median(times))
		o.set("req_p99_ms", "ms", 1000*quantile(times, 0.99))
		o.set("jobs_per_s", "1/s", float64(len(times))/sum(times))
		return o
	}
}

// tracedSolver alternates unobserved facade instances (for the counters
// and the overhead baseline) with observed ones, whose engine spans the
// tracer records. On an exact workload the observed run must repeat the
// unobserved one's counters and per-depth EMM clause counts; any
// difference is a failure, so the per-layer times always describe the
// search the program does.
func tracedSolver(mk newInstance, exact bool) func(runConfig) outcome {
	return func(cfg runConfig) outcome {
		var o outcome
		inst := mk(cfg.seed, true)
		tr := newTracer()
		var plain, traced []float64
		var base counters
		var slowest time.Duration
		start := time.Now()
		for keepGoing(start, cfg.budget, len(traced), 1, slowest) {
			var crash []string
			dt, _ := measured(func() { crash = guard(func() { inst.run(nil) }) })
			plain = append(plain, ms(dt))
			problems := crash
			if len(crash) == 0 {
				problems = inst.check(replayDirect)
			}
			o.fail(fmt.Sprintf("instance %d", len(plain)), problems)
			base = inst.counts()
			baseEMM := inst.depthEMM()

			ob := tr.observer()
			pt, _ := measured(func() {
				tr.beginInstance("instance")
				crash = guard(func() { inst.run(ob) })
				tr.end(tr.root)
			})
			slowest = max(slowest, dt+pt)
			traced = append(traced, tr.rootMS())
			problems = crash
			if len(crash) == 0 {
				problems = inst.check(tr.replayer())
				problems = append(problems, compareTraced(tr, exact, base, inst.counts(), baseEMM, inst.depthEMM())...)
				tr.add("unroll.clauses", float64(ob.Registry().Snapshot()[obs.MUnrollClauses]))
			}
			tr.endInstance()
			o.fail(fmt.Sprintf("traced instance %d", len(traced)), problems)
		}
		base.report(&o)
		tr.report(&o)
		o.set("trace.total_ms", "ms", median(traced))
		o.set("trace.overhead_ms", "ms", median(traced)-median(plain))
		if err := tr.write(cfg.traceTo); err != nil {
			o.fail("trace file", []string{err.Error()})
		}
		return o
	}
}

// compareTraced records the observed run's conflicts and the number of
// depths whose EMM clause count differs from the unobserved run's, and
// on an exact workload reports any difference as a problem.
func compareTraced(tr *tracer, exact bool, base, got counters, baseEMM, gotEMM []int) []string {
	diff := max(len(baseEMM), len(gotEMM)) - min(len(baseEMM), len(gotEMM))
	for i := 0; i < min(len(baseEMM), len(gotEMM)); i++ {
		if baseEMM[i] != gotEMM[i] {
			diff++
		}
	}
	tr.add("trace.conflicts", float64(got.conflicts))
	tr.add("trace.emm_depths_differing", float64(diff))
	if !exact {
		return nil
	}
	var p []string
	if got != base {
		p = append(p, fmt.Sprintf("traced counters %+v, untraced %+v", got, base))
	}
	if diff > 0 {
		p = append(p, fmt.Sprintf("%d depths differ in EMM clauses: traced %v, untraced %v", diff, gotEMM, baseEMM))
	}
	return p
}

// guard runs f and turns a panic (the engines panic on a failed internal
// witness replay) into a reported problem.
func guard(f func()) (problems []string) {
	defer func() {
		if r := recover(); r != nil {
			problems = []string{fmt.Sprintf("panic: %v", r)}
		}
	}()
	f()
	return nil
}

// counters are the per-layer counts read from public results (Result.Stats
// and DepthStats, summed over the instance's facade calls).
type counters struct {
	solves, conflicts, propagations, strashHits int64
	emmClauses, emmInit, memoHits               int64
	simplifies, eliminated                      int64
	lazyRounds, lazySpurious                    int64
	keptLatches, latches                        int64
	// eagerEMM is the eager formula's EMM clause count, the reference the
	// lazy clause ratio divides by (growth-lazy's traced run only).
	eagerEMM int64
}

func (c *counters) add(s bmc.Stats, ds []bmc.DepthStat) {
	c.solves += int64(s.SolveCalls)
	c.conflicts += s.Conflicts
	c.emmClauses += int64(s.EMM.Clauses())
	c.emmInit += int64(s.EMM.InitClauses)
	c.memoHits += int64(s.EMM.CompMemoHits)
	c.simplifies += s.Simplifies
	c.eliminated += s.EliminatedVars
	c.lazyRounds += s.LazyRounds
	c.lazySpurious += s.LazySpurious
	for _, d := range ds {
		c.propagations += d.Propagations
		c.strashHits += int64(d.StrashHits)
	}
}

func (c counters) report(o *outcome) {
	o.set("sat.solves", "count", float64(c.solves))
	o.set("sat.conflicts", "count", float64(c.conflicts))
	o.set("sat.propagations", "count", float64(c.propagations))
	o.set("unroll.strash_hits", "count", float64(c.strashHits))
	o.set("emm.clauses", "count", float64(c.emmClauses))
	o.set("emm.init_clauses", "count", float64(c.emmInit))
	o.set("emm.memo_hits", "count", float64(c.memoHits))
	o.set("simplify.passes", "count", float64(c.simplifies))
	o.set("simplify.eliminated_vars", "count", float64(c.eliminated))
	o.set("lazy.rounds", "count", float64(c.lazyRounds))
	o.set("lazy.spurious_ratio", "ratio", ratio(float64(c.lazySpurious), float64(c.lazyRounds)))
	o.set("lazy.emm_clause_ratio", "ratio", ratio(float64(c.emmClauses+c.emmInit), float64(c.eagerEMM)))
	o.set("pba.latches_kept_ratio", "ratio", ratio(float64(c.keptLatches), float64(c.latches)))
}

// emmPerDepth appends each depth's EMM clause count.
func emmPerDepth(out []int, ds []bmc.DepthStat) []int {
	for _, d := range ds {
		out = append(out, d.EMMClauses)
	}
	return out
}

// expect appends a problem when got != want.
func expect[T comparable](problems []string, what string, got, want T) []string {
	if got != want {
		return append(problems, fmt.Sprintf("%s = %v, want %v", what, got, want))
	}
	return problems
}

// --- qsort-proof -----------------------------------------------------------

// qsortConfig is quicksort N=3 at the reduced widths of the emmbmc CLI.
var qsortConfig = designs.QuickSortConfig{N: 3, ArrayAW: 4, DataW: 8, StackAW: 4}

// qsortOpts are the two facade configurations: BMC-3 proofs for P1
// (EMM with forward/backward termination) and the PBA flow for P2.
func qsortOpts(traced bool, ob *emmver.Observer) (p1, p2 emmver.Options) {
	p1 = emmver.Options{MaxDepth: 400, UseEMM: true, Proofs: true, CollectDepthStats: traced, Obs: ob}
	p2 = emmver.Options{MaxDepth: 400, UseEMM: true, StabilityDepth: 10, CollectDepthStats: traced, Obs: ob}
	return
}

type qsortInst struct {
	q      *designs.QuickSort
	traced bool
	p1     *emmver.Result
	p2     *emmver.PBAResult
}

// newQsort ignores the seed: the design and its verdicts are fixed.
func newQsort(_ int64, traced bool) solverInstance {
	return &qsortInst{q: designs.NewQuickSort(qsortConfig), traced: traced}
}

func (w *qsortInst) run(ob *emmver.Observer) {
	o1, o2 := qsortOpts(w.traced, ob)
	w.p1 = emmver.Verify(w.q.Netlist(), w.q.P1Index, o1)
	w.p2 = emmver.ProveWithAbstraction(w.q.Netlist(), w.q.P2Index, o2)
}

func (w *qsortInst) check(replayFunc) []string {
	var p []string
	p = append(p, checkP1(w.p1)...)
	return append(p, checkPBA(w.p2, len(w.q.Netlist().Latches))...)
}

// checkP1 pins P1: a forward-termination proof at depth 27.
func checkP1(r *emmver.Result) []string {
	var p []string
	p = expect(p, "P1 verdict", r.Kind, emmver.Proved)
	p = expect(p, "P1 depth", r.Depth, 27)
	return expect(p, "P1 proof side", r.ProofSide, "forward")
}

// checkPBA pins the P2 flow: phase 1 stable at depth 25 keeping 33 of 65
// latches and one of the two memories (the stack), then a forward proof
// at depth 28 on the reduced model.
func checkPBA(r *emmver.PBAResult, latches int) []string {
	var p []string
	p = expect(p, "P2 phase-1 verdict", r.Phase1.Kind, bmc.KindStable)
	p = expect(p, "P2 phase-1 depth", r.Phase1.Depth, 25)
	p = expect(p, "P2 latches", latches, 65)
	if r.Abs == nil {
		return append(p, "P2: no abstraction")
	}
	p = expect(p, "P2 kept latches", r.Abs.KeptLatches, 33)
	p = expect(p, "P2 kept memories", fmt.Sprint(r.Abs.MemEnabled), "[false true]")
	if r.Proof == nil {
		return append(p, "P2: no proof phase")
	}
	p = expect(p, "P2 verdict", r.Proof.Kind, bmc.KindProof)
	p = expect(p, "P2 depth", r.Proof.Depth, 28)
	p = expect(p, "P2 proof side", r.Proof.ProofSide, "forward")
	return p
}

func (w *qsortInst) counts() counters {
	var c counters
	c.add(w.p1.Stats, w.p1.DepthStats)
	c.add(w.p2.Phase1.Stats, w.p2.Phase1.DepthStats)
	if w.p2.Proof != nil {
		c.add(w.p2.Proof.Stats, w.p2.Proof.DepthStats)
	}
	if w.p2.Abs != nil {
		c.keptLatches = int64(w.p2.Abs.KeptLatches)
		c.latches = int64(len(w.q.Netlist().Latches))
	}
	return c
}

func (w *qsortInst) depthEMM() []int {
	out := emmPerDepth(nil, w.p1.DepthStats)
	out = emmPerDepth(out, w.p2.Phase1.DepthStats)
	if w.p2.Proof != nil {
		out = emmPerDepth(out, w.p2.Proof.DepthStats)
	}
	return out
}

// --- filter-many -----------------------------------------------------------

// filterHunt is the Industry I witness hunt: EMM BMC over all 216
// properties on one shared unrolling to depth 3·LineWidth+10 = 82, each
// counter-example replayed by the engine as it is found.
func filterHunt(traced bool, ob *emmver.Observer) emmver.Options {
	return emmver.Options{MaxDepth: 82, UseEMM: true, Jobs: 1, ValidateWitness: true,
		CollectDepthStats: traced, Obs: ob}
}

// filterInduct proves the hunt's leftovers by induction to depth 10.
func filterInduct(traced bool, ob *emmver.Observer) emmver.Options {
	return emmver.Options{MaxDepth: 10, UseEMM: true, Proofs: true, CollectDepthStats: traced, Obs: ob}
}

type filterInst struct {
	f      *designs.ImageFilter
	props  []int
	traced bool
	many   *emmver.ManyResult
	left   []int
	induct []*emmver.Result
}

// newFilter builds the paper-scale image filter; the seed permutes the
// property order the hunt visits.
func newFilter(seed int64, traced bool) solverInstance {
	f := designs.NewImageFilter(designs.DefaultImageFilter())
	props := f.PropIndices()
	rand.New(rand.NewSource(seed)).Shuffle(len(props), func(i, j int) {
		props[i], props[j] = props[j], props[i]
	})
	return &filterInst{f: f, props: props, traced: traced}
}

func (w *filterInst) run(ob *emmver.Observer) {
	n := w.f.Netlist()
	w.many = emmver.VerifyAll(n, w.props, filterHunt(w.traced, ob))
	w.left = w.left[:0]
	for pi, r := range w.many.Results {
		if r.Kind != emmver.CounterExample {
			w.left = append(w.left, w.props[pi])
		}
	}
	w.induct = w.induct[:0]
	for _, p := range w.left {
		w.induct = append(w.induct, emmver.Verify(n, p, filterInduct(w.traced, ob)))
	}
}

// check pins Industry I at paper scale: 192 replayable witnesses (deepest
// at 49) for exactly the reachable outputs, and induction proofs for the
// other 24.
func (w *filterInst) check(replay replayFunc) []string {
	var p []string
	n := w.f.Netlist()
	ces, maxDepth := 0, 0
	for pi, r := range w.many.Results {
		v := w.props[pi]
		if want := w.f.ExpectedReachable(v); want != (r.Kind == emmver.CounterExample) {
			p = append(p, fmt.Sprintf("prop %d: %s, reachable=%v", v, r, want))
			continue
		}
		if r.Kind != emmver.CounterExample {
			p = expect(p, fmt.Sprintf("prop %d hunt verdict", v), r.Kind, emmver.NoCounterExample)
			continue
		}
		ces++
		maxDepth = max(maxDepth, r.Depth)
		if r.Witness == nil {
			p = append(p, fmt.Sprintf("prop %d: CE without witness", v))
		} else if err := replay(r.Witness, n, v); err != nil {
			p = append(p, fmt.Sprintf("prop %d: replay: %v", v, err))
		}
	}
	p = expect(p, "CEs", ces, 192)
	p = expect(p, "max CE depth", maxDepth, 49)
	proofs := 0
	for _, r := range w.induct {
		if r.Kind == emmver.Proved {
			proofs++
		}
	}
	p = expect(p, "induction proofs", proofs, 24)
	p = expect(p, "unresolved", len(w.many.Results)-ces-proofs, 0)
	return p
}

func (w *filterInst) counts() counters {
	var c counters
	c.add(w.many.Stats, w.many.DepthStats)
	for _, r := range w.induct {
		c.add(r.Stats, r.DepthStats)
	}
	return c
}

func (w *filterInst) depthEMM() []int {
	out := emmPerDepth(nil, w.many.DepthStats)
	for _, r := range w.induct {
		out = emmPerDepth(out, r.DepthStats)
	}
	return out
}

// --- growth-eager / growth-lazy --------------------------------------------

// growthDepth is the bound: every depth is an UNSAT counter-example query.
const growthDepth = 40

func growthOpts(lazy, traced bool, ob *emmver.Observer) emmver.Options {
	o := emmver.BMC2(growthDepth)
	o.LazyEMM = lazy
	o.CollectDepthStats = traced
	o.Obs = ob
	return o
}

type growthInst struct {
	lazy, traced bool
	n            *emmver.Netlist
	res          *emmver.Result
	// eagerEMM is the eager run's EMM clause count at growthDepth, solved
	// once at set-up of a traced lazy run.
	eagerEMM int
}

// newGrowth returns the shared-address growth design (AW=8, DW=16, one
// write and two read ports, arbitrary init) under eager or lazy EMM. The
// seed is ignored: the design and its verdict are fixed.
func newGrowth(lazy bool) newInstance {
	return func(_ int64, traced bool) solverInstance {
		w := &growthInst{lazy: lazy, traced: traced,
			n: exp.GrowthSolveNetlist(exp.DefaultGrowthSolve())}
		if lazy && traced {
			emm := emmver.Verify(w.n, 0, growthOpts(false, false, nil)).Stats.EMM
			w.eagerEMM = emm.Clauses() + emm.InitClauses
		}
		return w
	}
}

func (w *growthInst) run(ob *emmver.Observer) {
	w.res = emmver.Verify(w.n, 0, growthOpts(w.lazy, w.traced, ob))
}

func (w *growthInst) check(replayFunc) []string {
	var p []string
	p = expect(p, "verdict", w.res.Kind, emmver.NoCounterExample)
	return expect(p, "depth", w.res.Depth, growthDepth)
}

func (w *growthInst) counts() counters {
	var c counters
	c.add(w.res.Stats, w.res.DepthStats)
	c.eagerEMM = int64(w.eagerEMM)
	return c
}

func (w *growthInst) depthEMM() []int { return emmPerDepth(nil, w.res.DepthStats) }
