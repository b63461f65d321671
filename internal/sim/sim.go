// Package sim is a cycle-accurate interpreter for aig netlists with
// concrete memory arrays. It serves two purposes:
//
//   - replaying BMC counter-examples on the un-abstracted design, so every
//     witness produced through EMM constraints is validated against real
//     memory semantics;
//   - randomized simulation in tests, cross-checking the symbolic engines.
//
// Memory semantics follow §2.3 of the paper: reads are asynchronous (data
// valid in the cycle the address is presented with the enable active), and
// writes become visible to reads in the following cycle.
package sim

import (
	"fmt"
	"math/rand"

	"emmver/internal/aig"
)

// Simulator holds the mutable state of one simulation run. All per-node
// state lives in dense slices indexed by NodeID, so a cycle does no
// per-node allocation or hashing.
type Simulator struct {
	n      *aig.Netlist
	latch  []bool // current latch values
	mems   []memState
	inputs map[aig.NodeID]bool

	// memo[id] holds gen<<1 | value once node id is evaluated in the
	// current cycle; Begin and Step bump gen, clearing the memo in O(1).
	memo []uint32
	gen  uint32

	// rdRef[id]-1 indexes reads for a KMemRead node (0: not a read bit).
	rdRef []int32
	reads []readBit

	// reused Step buffers
	nextLatch []bool
	writes    []pendingWrite

	cycle int
}

type memState struct {
	mem   *aig.Memory
	words []uint64
}

// readBit locates one KMemRead node: bit of memory mi's read port rp.
type readBit struct {
	mi  int
	rp  *aig.ReadPort
	bit uint
}

type pendingWrite struct {
	mi   int
	addr uint64
	data uint64
}

// New builds a simulator with latches at their reset values (InitX latches
// start at 0 unless overridden with SetLatch), zero/image memories at their
// declared contents, and arbitrary-init memories at 0 unless overridden
// with SetMemWord. Eval before any Begin sees all inputs false.
func New(n *aig.Netlist) *Simulator {
	s := &Simulator{n: n, gen: 1}
	for _, m := range n.Memories {
		ms := memState{mem: m, words: make([]uint64, m.Words())}
		if m.Init == aig.MemImage {
			copy(ms.words, m.Image)
		}
		s.mems = append(s.mems, ms)
	}
	s.fit()
	for _, l := range n.Latches {
		s.latch[l.Node] = l.Init == aig.Init1
	}
	return s
}

// fit resizes the per-node slices when the netlist has grown since they
// were sized, and re-indexes the read ports (which may have been added
// with the new nodes).
func (s *Simulator) fit() {
	nn := s.n.NumNodes()
	if len(s.memo) >= nn {
		return
	}
	s.latch = append(s.latch, make([]bool, nn-len(s.latch))...)
	s.memo = append(s.memo, make([]uint32, nn-len(s.memo))...)
	s.rdRef = make([]int32, nn)
	s.reads = s.reads[:0]
	for mi := range s.mems {
		for _, rp := range s.mems[mi].mem.Reads {
			for bit, id := range rp.Data {
				if s.rdRef[id] == 0 {
					s.reads = append(s.reads, readBit{mi: mi, rp: rp, bit: uint(bit)})
					s.rdRef[id] = int32(len(s.reads))
				}
			}
		}
	}
}

// clearMemo forgets every memoized node value.
func (s *Simulator) clearMemo() {
	s.fit()
	s.gen++
	if s.gen == 1<<31 {
		clear(s.memo)
		s.gen = 1
	}
}

// Cycle returns the number of completed Step calls.
func (s *Simulator) Cycle() int { return s.cycle }

// SetLatch overrides a latch's current value (e.g. to replay an InitX
// witness).
func (s *Simulator) SetLatch(id aig.NodeID, v bool) {
	s.fit()
	s.latch[id] = v
}

// LatchValue returns the current value of a latch node.
func (s *Simulator) LatchValue(id aig.NodeID) bool {
	s.fit()
	return s.latch[id]
}

// SetMemWord overrides a memory word (e.g. to install an arbitrary-init
// witness image).
func (s *Simulator) SetMemWord(memIndex int, addr int, word uint64) {
	s.mems[memIndex].words[addr] = word
}

// MemWord reads a memory word directly (bypassing ports).
func (s *Simulator) MemWord(memIndex int, addr int) uint64 {
	return s.mems[memIndex].words[addr]
}

// Eval computes the current-cycle value of a literal given the input values
// installed by the ongoing Step (or Begin) call.
func (s *Simulator) Eval(l aig.Lit) bool {
	s.fit()
	return s.eval(l)
}

func (s *Simulator) eval(l aig.Lit) bool {
	return s.evalNode(l.Node()) != l.Inverted()
}

func (s *Simulator) evalNode(id aig.NodeID) bool {
	if m := s.memo[id]; m>>1 == s.gen {
		return m&1 == 1
	}
	node := s.n.NodeAt(id)
	var v bool
	switch node.Kind {
	case aig.KConst:
		v = false
	case aig.KInput:
		v = s.inputs[id]
	case aig.KLatch:
		v = s.latch[id]
	case aig.KAnd:
		v = s.eval(node.F0) && s.eval(node.F1)
	case aig.KMemRead:
		v = s.evalMemRead(id)
	default:
		panic(fmt.Sprintf("sim: unknown node kind %v", node.Kind))
	}
	m := s.gen << 1
	if v {
		m |= 1
	}
	s.memo[id] = m
	return v
}

func (s *Simulator) evalMemRead(id aig.NodeID) bool {
	r := s.rdRef[id]
	if r == 0 {
		panic("sim: memread node not found in any port")
	}
	rb := &s.reads[r-1]
	addr := s.evalVec(rb.rp.Addr)
	return s.mems[rb.mi].words[addr]>>rb.bit&1 == 1
}

func (s *Simulator) evalVec(v []aig.Lit) uint64 {
	var out uint64
	for i, l := range v {
		if s.eval(l) {
			out |= 1 << uint(i)
		}
	}
	return out
}

// EvalVec returns the numeric value of a bus in the current cycle.
func (s *Simulator) EvalVec(v []aig.Lit) uint64 {
	s.fit()
	return s.evalVec(v)
}

// Begin installs input values and clears combinational memoization without
// advancing the clock, so Eval can inspect combinational functions of the
// current state and inputs.
func (s *Simulator) Begin(inputs map[aig.NodeID]bool) {
	s.clearMemo()
	s.inputs = inputs
}

// StepResult reports per-cycle observations.
type StepResult struct {
	PropOK        []bool // one per netlist property
	ConstraintsOK bool   // all environment constraints held
}

// Step advances the design one clock cycle with the given input values
// (missing inputs default to false). It evaluates all properties and
// constraints, applies memory writes, and updates latches.
func (s *Simulator) Step(inputs map[aig.NodeID]bool) StepResult {
	s.Begin(inputs)

	res := StepResult{PropOK: make([]bool, len(s.n.Props)), ConstraintsOK: true}
	for i, p := range s.n.Props {
		res.PropOK[i] = s.eval(p.OK)
	}
	for _, c := range s.n.Constraints {
		if !s.eval(c) {
			res.ConstraintsOK = false
		}
	}

	// Evaluate next-state and write effects before committing anything.
	s.nextLatch = s.nextLatch[:0]
	for _, l := range s.n.Latches {
		s.nextLatch = append(s.nextLatch, s.eval(l.Next))
	}
	s.writes = s.writes[:0]
	for mi := range s.mems {
		for _, wp := range s.mems[mi].mem.Writes {
			if s.eval(wp.En) {
				s.writes = append(s.writes, pendingWrite{
					mi:   mi,
					addr: s.evalVec(wp.Addr),
					data: s.evalVec(wp.Data),
				})
			}
		}
	}

	// Commit.
	for i, l := range s.n.Latches {
		s.latch[l.Node] = s.nextLatch[i]
	}
	for _, w := range s.writes {
		s.mems[w.mi].words[w.addr] = w.data
	}
	s.cycle++
	return res
}

// RandomInputs draws a full input assignment from rng.
func (s *Simulator) RandomInputs(rng *rand.Rand) map[aig.NodeID]bool {
	in := make(map[aig.NodeID]bool, len(s.n.Inputs))
	for _, id := range s.n.Inputs {
		in[id] = rng.Intn(2) == 1
	}
	return in
}

// RandomizeState draws random latch values and memory contents, used by
// property tests that must explore from arbitrary states.
func (s *Simulator) RandomizeState(rng *rand.Rand) {
	s.fit()
	for _, l := range s.n.Latches {
		s.latch[l.Node] = rng.Intn(2) == 1
	}
	for mi := range s.mems {
		mask := uint64(1)<<uint(s.mems[mi].mem.DW) - 1
		if s.mems[mi].mem.DW == 64 {
			mask = ^uint64(0)
		}
		for a := range s.mems[mi].words {
			s.mems[mi].words[a] = rng.Uint64() & mask
		}
	}
}
