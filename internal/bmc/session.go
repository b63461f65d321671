// The Session layer: incremental solver lifecycles. It owns what the
// solvers *do* between depths — solver construction and configuration,
// interrupt/deadline arming (including the portfolio lanes' re-arming),
// the between-depth inprocessing schedule, and statistics aggregation
// across however many solvers the Model built. The Model layer (model.go)
// decides what formula each solver holds; the Strategy layer (strategy.go)
// decides which queries to issue.

package bmc

import (
	"context"
	"errors"
	"fmt"
	"runtime/metrics"
	"time"

	"emmver/internal/core"
	"emmver/internal/obs"
	"emmver/internal/sat"
)

// newSolver creates one solver configured from the session-level options:
// restart strategy, clause-export filter, observability attachment, and
// the engine's interrupt budget (wall-clock deadline + run context).
func (e *engine) newSolver() *sat.Solver {
	s := sat.New()
	s.Restart = e.opt.Restart
	s.ShareLBD, s.ShareMaxLits = e.opt.ShareLBD, e.opt.ShareSize
	s.AttachObs(e.opt.Obs)
	e.installInterrupt(s)
	return s
}

// installInterrupt points s's interrupt hook at the engine-level budget:
// the wall-clock deadline and the run context.
func (e *engine) installInterrupt(s *sat.Solver) {
	if e.deadline.IsZero() && e.ctx.Done() == nil {
		s.Interrupt = nil
		return
	}
	s.Interrupt = e.timedOut
}

// armSolver retargets s's interrupt hook at a portfolio-lane context for
// the duration of one lane, returning the restore function.
func (e *engine) armSolver(s *sat.Solver, ctx context.Context) func() {
	s.Interrupt = func() bool { return ctx.Err() != nil || e.deadlinePassed() }
	return func() { e.installInterrupt(s) }
}

func (e *engine) deadlinePassed() bool {
	return !e.deadline.IsZero() && time.Now().After(e.deadline)
}

func (e *engine) timedOut() bool {
	return e.ctx.Err() != nil || e.deadlinePassed()
}

// solve wraps a SAT call with accounting.
func (e *engine) solve(s *sat.Solver, assumps ...sat.Lit) sat.Status {
	e.solveCalls.Add(1)
	return s.Solve(assumps...)
}

// lazySolver returns the dedicated CE-path solver when the lazy proof
// split is active, nil otherwise (cs then aliases fs).
func (e *engine) lazySolver() *sat.Solver {
	if e.cs != e.fs {
		return e.cs
	}
	return nil
}

// solvers lists the engine's distinct solvers: forward, then backward and
// the lazy CE-path solver when the Model built them.
func (e *engine) solvers() []*sat.Solver {
	out := []*sat.Solver{e.fs}
	for _, s := range []*sat.Solver{e.bs, e.lazySolver()} {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// simplifyMinConflicts gates between-depth inprocessing on search effort: a
// pass only runs once the solvers have logged this many new conflicts since
// the previous pass, plus one conflict per simplifyClausesPerConfl clauses
// (a pass rebuilds the occurrence lists, so its cost grows with the
// formula while its payoff grows with the search). Vars rather than consts
// so the equivalence tests can force every pass on designs too small to
// clear the bar.
var (
	simplifyMinConflicts    int64 = 500
	simplifyClausesPerConfl       = int64(50)
)

// simplifyStep runs the between-depth inprocessing pass on both solvers
// after depth i failed to decide the property. The frame frontier, EMM
// interface signals, and every strash/memo-cached literal are frozen by the
// unroller and generator, so elimination only consumes depth-local
// auxiliaries that no later depth can mention. Skipped under NoSimplify and
// under PBA (clause rewriting would invalidate the proof log); the solver's
// ErrTracingActive guard backstops the latter. Also skipped until the
// solvers have accumulated simplifyMinConflicts of new search effort since
// the last pass: on easy per-depth instances the occurrence-list rebuild
// costs more than the search it would save.
func (e *engine) simplifyStep(i int) {
	if e.opt.NoSimplify || e.opt.PBA {
		return
	}
	var confl, clauses int64
	for _, s := range e.solvers() {
		confl += s.Stats().Conflicts
		clauses += int64(s.NumClauses())
	}
	need := simplifyMinConflicts
	if simplifyClausesPerConfl > 0 {
		need += clauses / simplifyClausesPerConfl
	}
	if confl-e.lastSimpConfl < need {
		return
	}
	e.lastSimpConfl = confl
	sp := e.obs.Span("bmc.simplify", obs.F("depth", i), obs.F("prop", e.prop))
	var sub, str, elim int64
	for _, s := range e.solvers() {
		if err := s.Simplify(); err != nil && !errors.Is(err, sat.ErrTracingActive) {
			panic(fmt.Sprintf("bmc: inprocessing failed: %v", err))
		}
		st := s.Stats()
		sub += st.SubsumedClauses
		str += st.StrengthenedClauses
		elim += st.EliminatedVars
	}
	sp.End(obs.F("subsumed", sub), obs.F("strengthened", str),
		obs.F("eliminated_vars", elim))
}

// snapshotStats materializes the engine's cumulative statistics.
func (e *engine) snapshotStats() Stats {
	var s Stats
	s.SolveCalls = int(e.solveCalls.Load())
	s.Elapsed = time.Since(e.start)
	for _, o := range e.solvers() {
		s.Clauses += o.NumClauses()
		s.Vars += o.NumVars()
		ost := o.Stats()
		s.Conflicts += ost.Conflicts
		s.Restarts += ost.Restarts
		s.RestartsLuby += ost.RestartsLuby
		s.RestartsEMA += ost.RestartsEMA
		s.Simplifies += ost.Simplifies
		s.SubsumedClauses += ost.SubsumedClauses
		s.StrengthenedClauses += ost.StrengthenedClauses
		s.EliminatedVars += ost.EliminatedVars
	}
	// Under LazyEMM the EMM tally reports the CE path's generator (cg ==
	// fg unless the proof split is active): that is the constraint set the
	// lazy mode reduces, and the figure the A/B harness compares against
	// an eager run.
	if e.cg != nil {
		s.EMM = e.cg.Sizes()
	}
	s.LazyRounds = e.lazyRounds
	s.LazySpurious = e.lazySpurious
	e.sampleHeap()
	s.PeakHeapMB = float64(e.peakLive) / (1 << 20)
	return s
}

// sampleHeap folds the current live heap into the engine's high-water mark
// (Stats.PeakHeapMB). The driver calls it at every depth boundary and
// snapshotStats once more at the end.
func (e *engine) sampleHeap() {
	if v := heapLive(); v > e.peakLive {
		e.peakLive = v
	}
}

// heapLive returns the bytes of heap the most recent garbage collection
// marked live (runtime/metrics /gc/heap/live:bytes). Before the process's
// first collection nothing has been freed, so it returns the bytes in heap
// objects instead. Unlike runtime.ReadMemStats the read does not stop the
// world.
func heapLive() uint64 {
	s := [3]metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(s[:])
	for _, x := range s {
		if x.Value.Kind() != metrics.KindUint64 {
			return 0
		}
	}
	if s[1].Value.Uint64() == 0 {
		return s[2].Value.Uint64()
	}
	return s[0].Value.Uint64()
}

// depthMark snapshots the cumulative counters at the end of a depth, so the
// next depth's DepthStat can be computed as a delta.
type depthMark struct {
	clauses, vars, emmClauses, strashHits, memoHits, solves int
	props, confl, decs                                      int64
	at                                                      time.Time
}

// depthCumulative reads the counters DepthStat deltas are computed from.
func (e *engine) depthCumulative() depthMark {
	m := depthMark{at: time.Now(), solves: int(e.solveCalls.Load())}
	for _, s := range e.solvers() {
		st := s.Stats()
		m.clauses += s.NumClauses()
		m.vars += s.NumVars()
		m.props += st.Propagations
		m.confl += st.Conflicts
		m.decs += st.Decisions
	}
	for _, u := range e.unrollers() {
		m.strashHits += u.StrashHits
	}
	gens := []*core.Generator{e.fg, e.bg}
	if e.cg != e.fg {
		gens = append(gens, e.cg)
	}
	for _, g := range gens {
		if g != nil {
			sz := g.Sizes()
			m.emmClauses += sz.Clauses() + sz.InitClauses
			m.memoHits += sz.CompMemoHits
		}
	}
	return m
}

// collectDepthStat appends the delta since the previous depth.
func (e *engine) collectDepthStat(i int) {
	cur := e.depthCumulative()
	prev := e.mark
	if prev.at.IsZero() {
		prev.at = e.start
	}
	e.depthStats = append(e.depthStats, DepthStat{
		Depth:        i,
		Clauses:      cur.clauses - prev.clauses,
		Vars:         cur.vars - prev.vars,
		EMMClauses:   cur.emmClauses - prev.emmClauses,
		StrashHits:   cur.strashHits - prev.strashHits,
		CompMemoHits: cur.memoHits - prev.memoHits,
		Propagations: cur.props - prev.props,
		Conflicts:    cur.confl - prev.confl,
		Decisions:    cur.decs - prev.decs,
		Solves:       cur.solves - prev.solves,
		Elapsed:      cur.at.Sub(prev.at),
	})
	e.mark = cur
}
