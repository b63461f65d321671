package sat

// Proof tracing internals.
//
// Every attached clause gets a dense id. For learnt clauses the solver
// records a resolution chain: the ids of the clauses resolved together
// during conflict analysis. Literals assigned at decision level 0 are
// dropped from resolvents without resolving them out explicitly; instead
// of expanding their (possibly huge, shared) level-0 derivations into every
// chain, the chain stores a compact marker for the variable and the
// derivation is expanded once — memoized across the whole walk — when Core
// is called. Level-0 assignments and their reason clauses are never undone
// or deleted (reasons are locked), so deferred expansion is sound.
//
// Chains live in a flat arena indexed by clause id, keeping the per-learnt
// overhead to the antecedent count times 4 bytes. A clause's id is its cref
// (see clauseDB.alloc).

// chainEntry encoding: values ≥ 0 are clause ids; value -(v+1) marks "the
// level-0 derivation of variable v".
func markLevelZero(v Var) int32 { return -int32(v) - 1 }

func isLevelZeroMark(e int32) bool { return e < 0 }

func markedVar(e int32) Var { return Var(-e - 1) }

// proofStore holds chains and tags for all attached clauses, and the
// visit stamps Core walks them with.
type proofStore struct {
	arena []int32 // concatenated chains
	off   []int32 // id -> start offset in arena (len id+1 entries when built)
	tags  []int64 // id -> caller tag (originals), -1 for learnt clauses

	// Core's visited sets: an id (variable) was visited in the current
	// walk when its stamp equals gen.
	idStamp  []uint32
	varStamp []uint32
	gen      uint32
}

// newWalk starts a Core walk over nID ids and nVar variables: it sizes the
// stamp arrays and advances the generation, so nothing counts as visited.
func (p *proofStore) newWalk(nID, nVar int) {
	if len(p.idStamp) < nID {
		p.idStamp = resize(p.idStamp, nID)
	}
	if len(p.varStamp) < nVar {
		p.varStamp = resize(p.varStamp, nVar)
	}
	p.gen++
	if p.gen == 0 { // wrapped: stale stamps could alias the new generation
		clear(p.idStamp)
		clear(p.varStamp)
		p.gen = 1
	}
}

// addOriginal registers an original clause and returns its id.
func (p *proofStore) addOriginal(tag int64) int32 {
	id := int32(len(p.off))
	p.off = append(grow(p.off, 1), int32(len(p.arena)))
	p.tags = append(grow(p.tags, 1), tag)
	return id
}

// addLearnt registers a learnt clause with its resolution chain.
func (p *proofStore) addLearnt(chain []int32) int32 {
	id := int32(len(p.off))
	p.off = append(grow(p.off, 1), int32(len(p.arena)))
	p.tags = append(grow(p.tags, 1), -1)
	p.arena = append(grow(p.arena, len(chain)), chain...)
	return id
}

// chain returns the stored chain of a clause id.
func (p *proofStore) chain(id int32) []int32 {
	start := p.off[id]
	end := int32(len(p.arena))
	if int(id+1) < len(p.off) {
		end = p.off[id+1]
	}
	return p.arena[start:end]
}

func (p *proofStore) isLearnt(id int32) bool { return p.tags[id] == -1 }

// Core returns the provenance tags of a subset of original clauses that,
// together with the failed assumptions of the last Solve, is
// unsatisfiable. It must be called after an Unsat answer with proof
// tracing enabled. Tags equal to -1 (untagged clauses) are omitted;
// duplicate tags are reported once.
func (s *Solver) Core() []int64 {
	if !s.trace {
		panic("sat: Core requires proof tracing")
	}
	chain := s.finalChain
	if chain == nil && !s.ok {
		chain = s.rootCause
	}
	p := &s.proof
	p.newWalk(len(p.off), len(s.assigns))
	gen := p.gen
	seenTag := make(map[int64]bool)
	var tags []int64

	var stack []int32
	push := func(entries []int32) {
		stack = append(stack, entries...)
	}
	push(chain)
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if isLevelZeroMark(e) {
			v := markedVar(e)
			if p.varStamp[v] == gen {
				continue
			}
			p.varStamp[v] = gen
			r := s.reasons[v]
			if r == crefUndef {
				continue // defensive: level-0 decision cannot happen
			}
			stack = append(stack, s.db.id(r))
			for _, q := range s.db.lits(r) {
				if q.Var() != v && s.levels[q.Var()] == 0 {
					stack = append(stack, markLevelZero(q.Var()))
				}
			}
			continue
		}
		if p.idStamp[e] == gen {
			continue
		}
		p.idStamp[e] = gen
		if p.isLearnt(e) {
			push(p.chain(e))
			continue
		}
		tag := p.tags[e]
		if tag >= 0 && !seenTag[tag] {
			seenTag[tag] = true
			tags = append(tags, tag)
		}
	}
	return tags
}
