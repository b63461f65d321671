// The Model layer: netlist → unrolled time frames, EMM constraints, and
// the frozen frame frontier. It owns what the formula *says* — the three
// solver windows (forward/backward/counter-example), structural hashing
// and comparator memoization, abstraction application, per-depth frame
// extension, and witness extraction back into source-netlist coordinates.
// The Session layer (session.go) owns the solvers those windows are built
// over; the Strategy layer (strategy.go) decides which checks to run on
// them at each depth.

package bmc

import (
	"fmt"

	"emmver/internal/aig"
	"emmver/internal/core"
	"emmver/internal/pba"
	"emmver/internal/sat"
	"emmver/internal/sim"
	"emmver/internal/unroll"
)

// buildForwardWindow constructs the forward window: the Initialized-mode
// unrolling with its EMM generator, over a fresh session solver. It hosts
// the forward termination check and (unless the lazy proof split moves
// them) the counter-example checks.
//
// Cross-tag sharing (strash, comparator memoization) reuses clauses
// emitted under the first requester's tag. That is sound for verdicts,
// but PBA harvests clause tags from UNSAT cores to decide relevance —
// a shared clause would implicate only its first creator, so the
// abstraction could silently drop latches or EMM events the proof
// needs. Like init folding, both caches are therefore off while cores
// are being tracked (phase 2 of the PBA flow runs without opt.PBA and
// keeps full sharing).
func (e *engine) buildForwardWindow() {
	opt, n := e.opt, e.n
	e.fs = e.newSolver()
	if opt.PBA {
		e.fs.EnableProofTracing()
		e.tracker = pba.NewTracker()
	}
	e.fu = unroll.New(n, e.fs, unroll.Initialized)
	e.fu.NoStrash = opt.DisableStrash || opt.PBA
	e.fu.FoldInits = !opt.PBA
	e.fu.MemAwareLFP = len(n.Memories) > 0 && !opt.PureLatchLFP
	e.fu.AttachObs(opt.Obs)
	e.applyAbstraction(e.fu)
	if opt.UseEMM && len(n.Memories) > 0 {
		e.fg = core.NewGenerator(e.fu, false)
		e.fg.AttachObs(opt.Obs)
		if opt.DisableEMMMemo || opt.PBA {
			e.fg.DisableComparatorMemo()
		}
		if opt.DisableEq6 {
			e.fg.DisableInitConsistency()
		}
		if opt.DisableExclusivity {
			e.fg.DisableExclusivity()
		}
		e.applyMemAbstraction(e.fg)
	}
}

// buildBackwardWindow constructs the backward (termination-proof) window:
// the Free-mode unrolling hosting the backward/induction-step check.
func (e *engine) buildBackwardWindow() {
	opt, n := e.opt, e.n
	e.bs = e.newSolver()
	e.bu = unroll.New(n, e.bs, unroll.Free)
	e.bu.NoStrash = opt.DisableStrash || opt.PBA
	e.bu.MemAwareLFP = len(n.Memories) > 0 && !opt.PureLatchLFP
	e.bu.AttachObs(opt.Obs)
	e.applyAbstraction(e.bu)
	if opt.UseEMM && len(n.Memories) > 0 {
		// The backward window starts in an arbitrary state, so every
		// memory must be treated as arbitrary-initialized (§4.2).
		e.bg = core.NewGenerator(e.bu, true)
		e.bg.AttachObs(opt.Obs)
		if opt.KInduction {
			// k-induction strengthening: a memory with no write ports never
			// changes, so "contents ≡ declared init" holds in every
			// reachable state and may be assumed by the induction step.
			e.bg.RetainWriteFreeInit()
		}
		if opt.DisableEMMMemo || opt.PBA {
			e.bg.DisableComparatorMemo()
		}
		if opt.DisableEq6 {
			e.bg.DisableInitConsistency()
		}
		if opt.DisableExclusivity {
			e.bg.DisableExclusivity()
		}
		e.applyMemAbstraction(e.bg)
	}
}

// buildCEWindow routes the counter-example path: it aliases the forward
// window unless lazy EMM splits it onto a dedicated third window.
func (e *engine) buildCEWindow() {
	opt, n := e.opt, e.n
	e.cs, e.cu, e.cg = e.fs, e.fu, e.fg
	if !opt.LazyEMM || e.fg == nil || opt.PBA || opt.DisableExclusivity {
		return
	}
	e.lazy = true
	if opt.Proofs {
		// Forward termination (SAT(I ∧ LFP ∧ C) — UNSAT proves) is only
		// sound against the full constraint set: a lazily weakened
		// formula could go UNSAT and claim a bogus proof. The CE checks
		// therefore move to their own lazily-constrained solver and
		// fs/bs keep the exact encoding for the termination queries.
		e.cs = e.newSolver()
		e.cu = unroll.New(n, e.cs, unroll.Initialized)
		e.cu.NoStrash = opt.DisableStrash
		e.cu.FoldInits = true
		e.cu.MemAwareLFP = e.fu.MemAwareLFP
		e.cu.AttachObs(opt.Obs)
		e.applyAbstraction(e.cu)
		e.cg = core.NewGenerator(e.cu, false)
		e.cg.AttachObs(opt.Obs)
		if opt.DisableEMMMemo {
			e.cg.DisableComparatorMemo()
		}
		if opt.DisableEq6 {
			e.cg.DisableInitConsistency()
		}
		e.applyMemAbstraction(e.cg)
	}
	e.cg.EnableLazy()
}

func (e *engine) applyAbstraction(u *unroll.Unroller) {
	if e.opt.Abs == nil {
		return
	}
	for id := range e.opt.Abs.FreeLatches {
		u.Abstracted[id] = true
	}
}

func (e *engine) applyMemAbstraction(g *core.Generator) {
	if e.opt.Abs == nil {
		return
	}
	for mi := range e.opt.Abs.MemEnabled {
		g.SetMemoryEnabled(mi, e.opt.Abs.MemEnabled[mi])
		for r, on := range e.opt.Abs.ReadEnabled[mi] {
			g.SetReadPortEnabled(mi, r, on)
		}
		for w, on := range e.opt.Abs.WriteEnabled[mi] {
			g.SetWritePortEnabled(mi, w, on)
		}
	}
}

// prepareDepth extends both unrollings and EMM constraints to depth i.
func (e *engine) prepareDepth(i int) {
	if e.fg != nil {
		e.fg.AddUpTo(i)
	}
	e.fu.AssertConstraints(i)
	if e.cu != e.fu {
		e.cg.AddUpTo(i)
		e.cu.AssertConstraints(i)
	}
	if e.bu != nil {
		if e.bg != nil {
			e.bg.AddUpTo(i)
		}
		e.bu.AssertConstraints(i)
	}
}

// publishObs flushes the per-depth observability deltas (the unrollers
// publish at depth boundaries; the solvers publish per Solve call and the
// EMM generators per frame on their own) and raises the depth high-water
// gauge. No-op without an attached registry.
func (e *engine) publishObs(i int) {
	e.fu.PublishObs()
	if e.bu != nil {
		e.bu.PublishObs()
	}
	if e.cu != e.fu {
		e.cu.PublishObs()
	}
	e.obsDepth.Max(int64(i))
}

// emmClausesCum is the cumulative EMM clause count of the counter-example
// window (Sizes().Clauses() + InitClauses; cg aliases the forward
// generator unless the lazy proof split is active), the figure per-depth
// trace events report so a journal can be reconciled against
// Result.Stats.EMM.
func (e *engine) emmClausesCum() int {
	if e.cg == nil {
		return 0
	}
	sz := e.cg.Sizes()
	return sz.Clauses() + sz.InitClauses
}

// extractWitness decodes the satisfying model (on the counter-example
// path's solver) into a replayable trace.
func (e *engine) extractWitness(depth int) *Witness {
	w := &Witness{Length: depth}
	for f := 0; f <= depth; f++ {
		in := make(map[aig.NodeID]bool)
		for _, id := range e.n.Inputs {
			if e.cu.Built(id, f) {
				in[id] = e.cu.ModelBit(aig.MkLit(id, false), f)
			}
		}
		w.Inputs = append(w.Inputs, in)
	}
	w.InitLatches = make(map[aig.NodeID]bool)
	for _, l := range e.n.Latches {
		if l.Init == aig.InitX && e.cu.Built(l.Node, 0) {
			w.InitLatches[l.Node] = e.cu.ModelBit(aig.MkLit(l.Node, false), 0)
		}
	}
	// Arbitrary-init memory contents: every enabled read that hit no
	// in-window write pins the initial word at its address.
	if e.cg != nil && e.cg.Lazy() {
		// The lazy generator has no per-frame N literals for pending
		// reads; the oracle re-derives "hit no in-window write" from the
		// just-validated model's interface trace instead.
		w.MemInit = e.cg.LazyMemInit(depth)
	} else if e.cg != nil {
		for mi, m := range e.n.Memories {
			words := make(map[int]uint64)
			for r := range m.Reads {
				for _, ev := range e.cg.ReadEvents(mi, r) {
					// A reused engine may have frames beyond this CE's depth
					// built; their read events are unconstrained here.
					if ev.Frame > depth {
						continue
					}
					if e.cs.LitValue(ev.Re) != sat.True || e.cs.LitValue(ev.N) != sat.True {
						continue
					}
					addr := decodeVec(e.cs, ev.Addr)
					words[int(addr)] = decodeVec(e.cs, ev.RD)
				}
			}
			w.MemInit = append(w.MemInit, words)
		}
	} else {
		for range e.n.Memories {
			w.MemInit = append(w.MemInit, map[int]uint64{})
		}
	}
	return w
}

func decodeVec(s *sat.Solver, lits []sat.Lit) uint64 {
	var out uint64
	for i, l := range lits {
		if s.LitValue(l) == sat.True {
			out |= 1 << uint(i)
		}
	}
	return out
}

// Witness is a counter-example trace: per-frame input values plus the
// initial values of unconstrained latches and arbitrary-init memory words
// the trace depends on.
type Witness struct {
	Length      int // the property is violated at this frame
	Inputs      []map[aig.NodeID]bool
	InitLatches map[aig.NodeID]bool
	MemInit     []map[int]uint64 // per memory: address -> initial word
}

// FormatFrame renders one frame's input assignment using the design's
// declared input names, for human-readable counter-example dumps.
func (w *Witness) FormatFrame(n *aig.Netlist, f int) string {
	if f < 0 || f >= len(w.Inputs) {
		return ""
	}
	out := ""
	for _, id := range n.Inputs {
		name := n.InputName(id)
		if name == "" {
			name = fmt.Sprintf("i%d", id)
		}
		v := 0
		if w.Inputs[f][id] {
			v = 1
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", name, v)
	}
	return out
}

// Replay simulates the witness on the concrete design (real memory
// arrays) and returns an error unless the property fails at frame Length
// with all environment constraints satisfied along the trace.
// A witness that does not fit the design (too few input frames, a
// property, latch or memory word the design lacks) is reported as an
// error, not a panic.
func (w *Witness) Replay(n *aig.Netlist, prop int) error {
	if prop < 0 || prop >= len(n.Props) {
		return fmt.Errorf("property %d out of range (design has %d)", prop, len(n.Props))
	}
	if w.Length < 0 || len(w.Inputs) <= w.Length {
		return fmt.Errorf("witness of length %d has %d input frames, want %d", w.Length, len(w.Inputs), w.Length+1)
	}
	if len(w.MemInit) > len(n.Memories) {
		return fmt.Errorf("witness initializes %d memories, design has %d", len(w.MemInit), len(n.Memories))
	}
	s := sim.New(n)
	for id, v := range w.InitLatches {
		if n.LatchOf(id) == nil {
			return fmt.Errorf("witness initializes node %d, which is not a latch of the design", id)
		}
		s.SetLatch(id, v)
	}
	for mi, words := range w.MemInit {
		for addr, word := range words {
			if addr < 0 || addr >= n.Memories[mi].Words() {
				return fmt.Errorf("witness initializes %s[%d], memory has %d words", n.Memories[mi].Name, addr, n.Memories[mi].Words())
			}
			s.SetMemWord(mi, addr, word)
		}
	}
	for f := 0; f <= w.Length; f++ {
		res := s.Step(w.Inputs[f])
		if !res.ConstraintsOK {
			return fmt.Errorf("constraints violated at frame %d", f)
		}
		if f == w.Length {
			if res.PropOK[prop] {
				return fmt.Errorf("property %d holds at frame %d; witness is spurious", prop, f)
			}
		}
	}
	return nil
}
