package sat

import (
	"errors"
	"sort"
)

// Inprocessing (SatELite-style, applied between incremental Solve calls):
// removal of level-0-satisfied clauses, backward subsumption,
// self-subsuming resolution (clause strengthening), and bounded variable
// elimination over occurrence lists.
//
// Incremental safety contract: the client promises, via Freeze, never to
// mention a non-frozen variable in a future AddClause call or assumption.
// Under that promise elimination is sound — it computes ∃v.F by clause
// distribution, which preserves the formula's projection onto the remaining
// variables, so clauses added later over frozen variables see exactly the
// same models. Witness decoding still works for eliminated variables
// because Solve extends every model over the recorded eliminated clauses
// (extendModel). Violations of the promise do not corrupt silently: both
// AddClause and Solve panic when handed an eliminated variable.
//
// Proof tracing is incompatible with all of this (a strengthened or
// eliminated clause has no tagged original to attribute), so Simplify
// refuses to run — returning ErrTracingActive and changing nothing — while
// tracing is enabled.

// ErrTracingActive is returned by Simplify when proof tracing is enabled:
// inprocessing rewrites clauses, which would invalidate resolution chains,
// UNSAT cores, and the latch reasons PBA harvests from them.
var ErrTracingActive = errors.New("sat: Simplify is disabled while proof tracing is active")

// Inprocessing budgets. Subsumption and elimination are bounded per call so
// a Simplify between BMC depths stays a small fraction of solve time.
const (
	subBudgetLits  = 20_000_000 // literal visits per subsumption pass
	elimBudgetLits = 4_000_000  // literal visits per elimination pass
	// elimOccLimit skips variables occurring more often than this on both
	// sides (the resolvent check would be quadratic there and essentially
	// never pays off).
	elimOccLimit = 30
	// elimWidthLimit aborts an elimination that would produce a resolvent
	// wider than this.
	elimWidthLimit = 96
)

// Freeze marks v as part of the solver's external interface: Simplify will
// never eliminate a frozen variable. Calls nest (a counter, not a flag).
// The BMC stack freezes every literal cached for reuse across depths —
// frame values, structural-hash outputs, EMM interface signals, loop-free
// path literals — and leaves the per-depth auxiliary encoding eliminable.
func (s *Solver) Freeze(v Var) {
	if s.elimed[v] {
		panic("sat: Freeze on an already eliminated variable")
	}
	s.frozen[v]++
}

// Thaw undoes one Freeze, making v eliminable again once the count drops
// to zero.
func (s *Solver) Thaw(v Var) {
	if s.frozen[v] == 0 {
		panic("sat: Thaw without matching Freeze")
	}
	s.frozen[v]--
}

// Frozen reports whether v is currently protected from elimination.
func (s *Solver) Frozen(v Var) bool { return s.frozen[v] > 0 }

// Eliminated reports whether v was removed by bounded variable elimination.
func (s *Solver) Eliminated(v Var) bool { return s.elimed[v] }

// Simplify runs one inprocessing pass: propagate pending units, drop
// satisfied clauses and false literals, subsume and strengthen clauses
// (new ones since the last call against the whole database), then eliminate
// cheap non-frozen variables. Returns ErrTracingActive (and does nothing)
// when proof tracing is on. A nil return does not imply satisfiability —
// the pass may derive UNSAT, which the next Solve call reports.
func (s *Solver) Simplify() error {
	if s.trace {
		return ErrTracingActive
	}
	if !s.ok {
		return nil
	}
	s.cancelUntil(0)
	if confl := s.propagate(); confl != crefUndef {
		s.ok = false
		return nil
	}
	if s.interrupted {
		s.interrupted = false
		return nil
	}
	s.stats.Simplifies++
	// Level-0 antecedents are never consulted again (analyze skips level-0
	// literals; analyzeFinal treats a reason-less level-0 variable as a
	// standing fact). Clearing them unlocks every clause and guarantees no
	// deletion below leaves a dangling reason cref.
	for _, l := range s.trail {
		s.reasons[l.Var()] = crefUndef
	}
	newMark := len(s.db.hdr)
	queue := s.simpCleanAndIndex()
	if s.ok && !s.interrupted {
		s.forwardSubsume(queue)
	}
	if s.ok && !s.interrupted {
		s.eliminateVars()
	}
	s.interrupted = false
	s.rebuildLists()
	if s.db.shouldCompact() {
		s.db.compact()
	}
	s.simpMark = newMark
	if s.obsAttached {
		s.PublishObs()
	}
	return nil
}

// simpCleanAndIndex removes satisfied clauses and false literals, builds the
// occurrence lists and signature abstractions over the live database, and
// returns the subsumption queue (clauses allocated since the last Simplify,
// smallest first).
func (s *Solver) simpCleanAndIndex() []cref {
	if len(s.occ) < 2*len(s.assigns) {
		s.occ = resize(s.occ, 2*len(s.assigns))
	}
	for i := range s.occ {
		s.occ[i] = s.occ[i][:0]
	}
	if len(s.litStamp) < 2*len(s.assigns) {
		s.litStamp = resize(s.litStamp, 2*len(s.assigns))
	}
	if len(s.abst) < len(s.db.hdr) {
		s.abst = resize(s.abst, len(s.db.hdr))
	}
	var queue []cref
	index := func(list []cref) {
		for _, c := range list {
			if !s.ok || s.db.isDeleted(c) {
				continue
			}
			ls := s.db.lits(c)
			satisfied, nFalse := false, 0
			for _, l := range ls {
				switch s.value(l) {
				case True:
					satisfied = true
				case False:
					nFalse++
				}
			}
			if satisfied {
				s.removeClauseSimp(c)
				continue
			}
			if nFalse > 0 {
				s.detach(c)
				w := 0
				for _, l := range ls {
					if s.value(l) != False {
						ls[w] = l
						w++
					}
				}
				s.db.wasted += len(ls) - w
				s.db.setSize(c, w)
				ls = s.db.lits(c)
				switch w {
				case 0:
					// All literals false at level 0: the database is UNSAT.
					// (Unreachable after a complete propagation; kept for
					// safety against interrupted passes.)
					s.ok = false
					continue
				case 1:
					if s.value(ls[0]) == Undef {
						s.uncheckedEnqueue(ls[0], crefUndef)
						s.simpPropagate()
					}
					continue
				default:
					s.attach(c)
				}
			}
			if len(ls) < 2 {
				continue // units carry no occurrence-list value
			}
			var ab uint64
			for _, l := range ls {
				s.occ[l] = append(s.occ[l], c)
				ab |= 1 << (uint(l.Var()) & 63)
			}
			s.abst[c] = ab
			if int(c) >= s.simpMark {
				queue = append(queue, c)
			}
		}
	}
	index(s.clauses)
	index(s.learnts)
	sort.Slice(queue, func(i, j int) bool { return s.db.size(queue[i]) < s.db.size(queue[j]) })
	return queue
}

// simpPropagate runs unit propagation at level 0 during inprocessing and
// keeps the no-level-0-reasons invariant.
func (s *Solver) simpPropagate() {
	from := s.qhead
	if confl := s.propagate(); confl != crefUndef {
		s.ok = false
	}
	for _, l := range s.trail[from:] {
		s.reasons[l.Var()] = crefUndef
	}
}

// forwardSubsume processes the queue: each clause C tries to subsume or
// strengthen every clause sharing C's least-occurring literal. Strict
// subsumption deletes the larger clause (promoting C to irredundant first
// when a learnt subsumes an original); a single flipped literal triggers
// self-subsuming resolution, strengthening the larger clause in place and
// requeueing it.
func (s *Solver) forwardSubsume(queue []cref) {
	budget := int64(subBudgetLits)
	for qi := 0; qi < len(queue); qi++ {
		if !s.ok || s.interrupted || budget < 0 {
			return
		}
		c := queue[qi]
		if s.db.isDeleted(c) || s.db.size(c) < 2 {
			continue
		}
		cl := s.db.lits(c)
		s.litGen++
		gen := s.litGen
		for _, l := range cl {
			s.litStamp[l] = gen
		}
		best := cl[0]
		for _, l := range cl[1:] {
			if len(s.occ[l]) < len(s.occ[best]) {
				best = l
			}
		}
		occs := s.occ[best]
		for oi := 0; oi < len(occs); oi++ {
			d := occs[oi]
			if d == c || s.db.isDeleted(d) || s.db.size(d) < len(cl) {
				continue
			}
			if s.abst[c]&^s.abst[d] != 0 {
				continue // C mentions a variable D does not: cannot subsume
			}
			budget -= int64(s.db.size(d))
			hits, flips := 0, 0
			var flip Lit
			for _, q := range s.db.lits(d) {
				if s.litStamp[q] == gen {
					hits++
				} else if s.litStamp[q.Not()] == gen {
					flips++
					flip = q
				}
			}
			switch {
			case hits == len(cl):
				if s.db.isLearnt(c) && !s.db.isLearnt(d) {
					// C is implied by the originals and contained in the
					// original D, so C may take D's place permanently.
					s.db.promote(c)
				}
				s.stats.SubsumedClauses++
				s.removeClauseSimp(d)
			case hits == len(cl)-1 && flips == 1:
				// D is a self-subsumption target: resolving C and D on
				// flip's variable yields D minus flip.
				queue = s.simpStrengthen(d, flip, queue)
				if !s.ok {
					return
				}
			}
		}
	}
}

// simpStrengthen removes literal l from clause c (self-subsuming
// resolution), maintaining watches, occurrence lists, and signatures, and
// requeues c for further subsumption rounds. Returns the updated queue.
func (s *Solver) simpStrengthen(c cref, l Lit, queue []cref) []cref {
	s.stats.StrengthenedClauses++
	s.detach(c)
	ls := s.db.lits(c)
	for i, q := range ls {
		if q == l {
			ls[i] = ls[len(ls)-1]
			break
		}
	}
	s.db.setSize(c, len(ls)-1)
	s.db.wasted++
	s.occRemove(l, c)
	ls = s.db.lits(c)
	if len(ls) == 1 {
		switch s.value(ls[0]) {
		case False:
			s.ok = false
		case Undef:
			s.uncheckedEnqueue(ls[0], crefUndef)
			s.simpPropagate()
		}
		// The clause stays listed as a unit (mirroring AddClause) but holds
		// no watches and no occurrence entries.
		return queue
	}
	s.attach(c)
	var ab uint64
	for _, q := range ls {
		ab |= 1 << (uint(q.Var()) & 63)
	}
	s.abst[c] = ab
	return append(queue, c)
}

// eliminateVars runs bounded variable elimination: a non-frozen, unassigned
// variable is eliminated when the non-tautological resolvents of its
// positive and negative original occurrences number at most the clauses
// removed. Learnt clauses mentioning the variable are simply dropped (they
// are implied, and keeping them would let search assign the variable
// inconsistently with model reconstruction). Every removed original clause
// is recorded for extendModel.
func (s *Solver) eliminateVars() {
	type cand struct {
		v    Var
		cost int
	}
	var cands []cand
	for vi := range s.assigns {
		v := Var(vi)
		if s.frozen[v] > 0 || s.elimed[v] || s.assigns[v] != Undef {
			continue
		}
		np := s.liveOriginalOcc(PosLit(v))
		nn := s.liveOriginalOcc(NegLit(v))
		if np+nn == 0 {
			continue // unconstrained: leave it to branching defaults
		}
		if np > elimOccLimit && nn > elimOccLimit {
			continue
		}
		cands = append(cands, cand{v, np * nn})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].v < cands[j].v
	})
	budget := int64(elimBudgetLits)
	for _, cd := range cands {
		if !s.ok || s.interrupted || budget < 0 {
			return
		}
		// Assignments and strengthening since candidate collection may have
		// changed the picture; tryEliminate re-reads the live occurrences.
		if s.assigns[cd.v] != Undef || s.elimed[cd.v] {
			continue
		}
		s.tryEliminate(cd.v, &budget)
	}
}

func (s *Solver) liveOriginalOcc(l Lit) int {
	n := 0
	for _, c := range s.occ[l] {
		if !s.db.isDeleted(c) && !s.db.isLearnt(c) {
			n++
		}
	}
	return n
}

// tryEliminate attempts to eliminate v, committing only when every resolvent
// fits the width limit and the resolvent count does not exceed the number of
// original clauses removed.
func (s *Solver) tryEliminate(v Var, budget *int64) {
	var pos, neg, learntOcc []cref
	for _, c := range s.occ[PosLit(v)] {
		if s.db.isDeleted(c) {
			continue
		}
		if s.db.isLearnt(c) {
			learntOcc = append(learntOcc, c)
		} else {
			pos = append(pos, c)
		}
	}
	for _, c := range s.occ[NegLit(v)] {
		if s.db.isDeleted(c) {
			continue
		}
		if s.db.isLearnt(c) {
			learntOcc = append(learntOcc, c)
		} else {
			neg = append(neg, c)
		}
	}
	bound := len(pos) + len(neg)
	var resolvents [][]Lit
	for _, p := range pos {
		for _, n := range neg {
			*budget -= int64(s.db.size(p) + s.db.size(n))
			if *budget < 0 {
				return
			}
			r, ok := s.resolve(p, n, v)
			if !ok {
				continue // tautology
			}
			if len(r) > elimWidthLimit {
				return
			}
			resolvents = append(resolvents, r)
			if len(resolvents) > bound {
				return
			}
		}
	}
	// Commit. For model reconstruction record only the smaller side's
	// clauses plus a default unit of the opposite phase (MiniSat's scheme):
	// extendModel walks records newest-first, so the unit — appended last —
	// seeds v's default, and an unsatisfied clause record then forces the
	// stored phase. At most one side can ever be forced, because the model
	// satisfies every resolvent; recording both sides instead would let a
	// later record flip v and silently break an earlier one.
	if len(pos) <= len(neg) {
		for _, c := range pos {
			s.recordElimClause(PosLit(v), c)
		}
		s.elimClauses = append(s.elimClauses, []Lit{NegLit(v)})
	} else {
		for _, c := range neg {
			s.recordElimClause(NegLit(v), c)
		}
		s.elimClauses = append(s.elimClauses, []Lit{PosLit(v)})
	}
	for _, c := range pos {
		s.removeClauseSimp(c)
	}
	for _, c := range neg {
		s.removeClauseSimp(c)
	}
	for _, c := range learntOcc {
		s.removeClauseSimp(c)
	}
	s.occ[PosLit(v)] = s.occ[PosLit(v)][:0]
	s.occ[NegLit(v)] = s.occ[NegLit(v)][:0]
	s.elimed[v] = true
	s.stats.EliminatedVars++
	for _, r := range resolvents {
		s.addSimpClause(r)
		if !s.ok {
			return
		}
	}
}

// recordElimClause snapshots clause c with vl (the eliminated variable's
// literal in c) moved to position 0, the layout extendModel relies on.
func (s *Solver) recordElimClause(vl Lit, c cref) {
	ls := s.db.lits(c)
	rec := make([]Lit, 0, len(ls))
	rec = append(rec, vl)
	for _, l := range ls {
		if l != vl {
			rec = append(rec, l)
		}
	}
	s.elimClauses = append(s.elimClauses, rec)
}

// resolve computes the resolvent of p and n on v (v positive in p, negative
// in n). Reports ok=false for tautologies.
func (s *Solver) resolve(p, n cref, v Var) ([]Lit, bool) {
	s.litGen++
	gen := s.litGen
	out := make([]Lit, 0, s.db.size(p)+s.db.size(n)-2)
	for _, l := range s.db.lits(p) {
		if l.Var() == v {
			continue
		}
		s.litStamp[l] = gen
		out = append(out, l)
	}
	for _, l := range s.db.lits(n) {
		if l.Var() == v {
			continue
		}
		if s.litStamp[l.Not()] == gen {
			return nil, false
		}
		if s.litStamp[l] == gen {
			continue
		}
		s.litStamp[l] = gen
		out = append(out, l)
	}
	return out, true
}

// addSimpClause feeds a resolvent through the normal clause-addition path
// (level-0 value checks, unit propagation) and registers any allocated
// clause in the occurrence index.
func (s *Solver) addSimpClause(lits []Lit) {
	before := len(s.db.hdr)
	trailFrom := len(s.trail)
	s.AddClauseTagged(-1, lits)
	for _, l := range s.trail[trailFrom:] {
		s.reasons[l.Var()] = crefUndef
	}
	if len(s.db.hdr) == before {
		return // satisfied or tautological: nothing stored
	}
	c := cref(before)
	if len(s.abst) < len(s.db.hdr) {
		s.abst = resize(s.abst, len(s.db.hdr))
	}
	if s.db.isDeleted(c) || s.db.size(c) < 2 {
		return
	}
	var ab uint64
	for _, l := range s.db.lits(c) {
		s.occ[l] = append(s.occ[l], c)
		ab |= 1 << (uint(l.Var()) & 63)
	}
	s.abst[c] = ab
}

// removeClauseSimp deletes a clause during inprocessing: watches are removed
// eagerly (binary implication lists are never consulted lazily), occurrence
// entries lazily (isDeleted filters them).
func (s *Solver) removeClauseSimp(c cref) {
	if s.db.isDeleted(c) {
		return
	}
	if s.db.isLearnt(c) {
		s.stats.LearntsDeleted++
	}
	s.detach(c)
	s.db.markDeleted(c)
}

// detach unhooks a clause from propagation. Safe on units (no watches).
func (s *Solver) detach(c cref) {
	ls := s.db.lits(c)
	if len(ls) < 2 {
		return
	}
	if len(ls) == 2 {
		s.removeBinWatch(ls[0], c)
		s.removeBinWatch(ls[1], c)
		return
	}
	s.removeWatch(ls[0], c)
	s.removeWatch(ls[1], c)
}

func (s *Solver) removeWatch(l Lit, c cref) {
	ws := s.watches[l.Not()]
	for i := range ws {
		if ws[i].c == c {
			ws[i] = ws[len(ws)-1]
			s.watches[l.Not()] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *Solver) removeBinWatch(l Lit, c cref) {
	ws := s.binWatches[l.Not()]
	for i := range ws {
		if ws[i].c == c {
			ws[i] = ws[len(ws)-1]
			s.binWatches[l.Not()] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *Solver) occRemove(l Lit, c cref) {
	oc := s.occ[l]
	for i := range oc {
		if oc[i] == c {
			oc[i] = oc[len(oc)-1]
			s.occ[l] = oc[:len(oc)-1]
			return
		}
	}
}

// rebuildLists drops deleted clauses from the bookkeeping lists, moves
// promoted learnts to the original list, and recounts the tiers.
func (s *Solver) rebuildLists() {
	cl := s.clauses[:0]
	for _, c := range s.clauses {
		if !s.db.isDeleted(c) {
			cl = append(cl, c)
		}
	}
	le := s.learnts[:0]
	s.nTier = [3]int{}
	for _, c := range s.learnts {
		if s.db.isDeleted(c) {
			continue
		}
		if !s.db.isLearnt(c) {
			cl = append(cl, c) // promoted to irredundant by subsumption
			continue
		}
		le = append(le, c)
		s.nTier[s.db.tier(c)]++
	}
	s.clauses, s.learnts = cl, le
}

// extendModel completes a model over eliminated variables: walking the
// recorded clauses newest-elimination-first, any unsatisfied clause is fixed
// by making its leading literal (the eliminated variable's) true. The
// resolvents added at elimination time guarantee this never breaks an
// earlier-recorded clause.
func (s *Solver) extendModel() {
	for i := len(s.elimClauses) - 1; i >= 0; i-- {
		rec := s.elimClauses[i]
		satisfied := false
		for _, l := range rec {
			if s.model[l.Var()].XorSign(l.Sign()) == True {
				satisfied = true
				break
			}
		}
		if !satisfied {
			l0 := rec[0]
			s.model[l0.Var()] = True.XorSign(l0.Sign())
		}
	}
	// Eliminated variables whose every record was already satisfied stay
	// unconstrained; give them a definite value so witness decoding never
	// reads Undef.
	for v, e := range s.elimed {
		if e && s.model[v] == Undef {
			s.model[v] = False
		}
	}
}
