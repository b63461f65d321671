package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/rtl"
)

func TestLatchInitAndStep(t *testing.T) {
	m := rtl.NewModule("t")
	q := m.Register("q", 2, 2)
	q.SetNext(m.Inc(q.Q))
	m.Done(q)
	s := New(m.N)
	s.Begin(nil)
	if got := s.EvalVec(q.Q); got != 2 {
		t.Fatalf("init %d want 2", got)
	}
	s.Step(nil)
	s.Begin(nil)
	if got := s.EvalVec(q.Q); got != 3 {
		t.Fatalf("after step %d want 3", got)
	}
	if s.Cycle() != 1 {
		t.Fatalf("cycle count wrong")
	}
}

func TestSetLatchOverride(t *testing.T) {
	m := rtl.NewModule("t")
	q := m.RegisterX("q", 1)
	q.SetNext(q.Q)
	m.Done(q)
	s := New(m.N)
	s.SetLatch(q.Q[0].Node(), true)
	if !s.LatchValue(q.Q[0].Node()) {
		t.Fatalf("SetLatch lost")
	}
	s.Begin(nil)
	if !s.Eval(q.Q[0]) {
		t.Fatalf("override not visible")
	}
}

func TestMemoryReadWriteCommitOrder(t *testing.T) {
	m := rtl.NewModule("t")
	mem := m.Memory("mem", 2, 4, aig.MemZero)
	we := m.InputBit("we")
	addr := m.Input("a", 2)
	data := m.Input("d", 4)
	mem.Write(addr, data, we)
	rd := mem.Read(addr, aig.True)
	s := New(m.N)
	in := map[aig.NodeID]bool{we.Node(): true}
	for i, l := range addr {
		in[l.Node()] = 1>>uint(i)&1 == 1
	}
	for i, l := range data {
		in[l.Node()] = 7>>uint(i)&1 == 1
	}
	s.Begin(in)
	if s.EvalVec(rd) != 0 {
		t.Fatalf("async read must see pre-write contents")
	}
	s.Step(in)
	if s.MemWord(0, 1) != 7 {
		t.Fatalf("write not committed")
	}
	s.Begin(in)
	if s.EvalVec(rd) != 7 {
		t.Fatalf("read after commit wrong")
	}
}

func TestSetMemWordAndImage(t *testing.T) {
	m := rtl.NewModule("t")
	mem := m.Memory("rom", 2, 4, aig.MemImage)
	mem.Mod.Image = []uint64{3, 1, 4, 1}
	raddr := m.Input("ra", 2)
	rd := mem.Read(raddr, aig.True)
	s := New(m.N)
	for a := 0; a < 4; a++ {
		in := map[aig.NodeID]bool{}
		for i, l := range raddr {
			in[l.Node()] = a>>uint(i)&1 == 1
		}
		s.Begin(in)
		if got := s.EvalVec(rd); got != mem.Mod.Image[a] {
			t.Fatalf("rom[%d]=%d want %d", a, got, mem.Mod.Image[a])
		}
	}
	s.SetMemWord(0, 2, 9)
	in := map[aig.NodeID]bool{raddr[1].Node(): true}
	s.Begin(in)
	if got := s.EvalVec(rd); got != 9 {
		t.Fatalf("SetMemWord not visible: %d", got)
	}
}

func TestPropertiesAndConstraints(t *testing.T) {
	m := rtl.NewModule("t")
	x := m.InputBit("x")
	m.AssertAlways("px", x)
	m.Assume(x.Not())
	s := New(m.N)
	res := s.Step(map[aig.NodeID]bool{x.Node(): true})
	if !res.PropOK[0] {
		t.Fatalf("property should hold when x=1")
	}
	if res.ConstraintsOK {
		t.Fatalf("constraint ¬x violated when x=1")
	}
	res = s.Step(map[aig.NodeID]bool{x.Node(): false})
	if res.PropOK[0] || !res.ConstraintsOK {
		t.Fatalf("wrong evaluation when x=0")
	}
}

func TestRandomInputsCoverAllInputs(t *testing.T) {
	m := rtl.NewModule("t")
	m.Input("a", 4)
	m.InputBit("b")
	s := New(m.N)
	in := s.RandomInputs(rand.New(rand.NewSource(1)))
	if len(in) != 5 {
		t.Fatalf("expected 5 inputs, got %d", len(in))
	}
}

func TestRandomizeState(t *testing.T) {
	m := rtl.NewModule("t")
	q := m.Register("q", 8, 0)
	q.SetNext(q.Q)
	m.Done(q)
	mem := m.Memory("mem", 3, 8, aig.MemZero)
	mem.Read(m.Input("ra", 3), aig.True)
	s := New(m.N)
	s.RandomizeState(rand.New(rand.NewSource(7)))
	any := false
	for a := 0; a < 8; a++ {
		if s.MemWord(0, a) != 0 {
			any = true
		}
	}
	s.Begin(nil)
	if s.EvalVec(q.Q) != 0 && !any {
		t.Fatalf("randomize changed nothing")
	}
	for a := 0; a < 8; a++ {
		if s.MemWord(0, a) > 0xff {
			t.Fatalf("randomized word exceeds DW mask")
		}
	}
}

func TestWriteRaceLastPortWins(t *testing.T) {
	m := rtl.NewModule("t")
	mem := m.Memory("mem", 1, 4, aig.MemZero)
	addr := m.Const(1, 0)
	mem.Write(addr, m.Const(4, 5), aig.True)
	mem.Write(addr, m.Const(4, 9), aig.True)
	s := New(m.N)
	s.Step(nil)
	if got := s.MemWord(0, 0); got != 9 {
		t.Fatalf("race: got %d want 9 (higher port wins)", got)
	}
}

// refSim is the original map-based interpreter, kept as the reference the
// dense Simulator is checked against: a fresh memo map per cycle, map
// latch state, and a linear search for each KMemRead node's port.
type refSim struct {
	n       *aig.Netlist
	latches map[aig.NodeID]bool
	mems    []memState
	vals    map[aig.NodeID]bool
	inputs  map[aig.NodeID]bool
}

func newRef(n *aig.Netlist) *refSim {
	s := &refSim{n: n, latches: make(map[aig.NodeID]bool)}
	for _, l := range n.Latches {
		s.latches[l.Node] = l.Init == aig.Init1
	}
	for _, m := range n.Memories {
		ms := memState{mem: m, words: make([]uint64, m.Words())}
		if m.Init == aig.MemImage {
			copy(ms.words, m.Image)
		}
		s.mems = append(s.mems, ms)
	}
	return s
}

func (s *refSim) Eval(l aig.Lit) bool {
	v := s.evalNode(l.Node())
	if l.Inverted() {
		return !v
	}
	return v
}

func (s *refSim) evalNode(id aig.NodeID) bool {
	if v, ok := s.vals[id]; ok {
		return v
	}
	node := s.n.NodeAt(id)
	var v bool
	switch node.Kind {
	case aig.KConst:
		v = false
	case aig.KInput:
		v = s.inputs[id]
	case aig.KLatch:
		v = s.latches[id]
	case aig.KAnd:
		v = s.Eval(node.F0) && s.Eval(node.F1)
	case aig.KMemRead:
		v = s.evalMemRead(id)
	}
	s.vals[id] = v
	return v
}

func (s *refSim) evalMemRead(id aig.NodeID) bool {
	for mi := range s.mems {
		ms := &s.mems[mi]
		for _, rp := range ms.mem.Reads {
			for bit, dn := range rp.Data {
				if dn == id {
					return ms.words[s.EvalVec(rp.Addr)]>>uint(bit)&1 == 1
				}
			}
		}
	}
	panic("ref: memread node not found in any port")
}

func (s *refSim) EvalVec(v []aig.Lit) uint64 {
	var out uint64
	for i, l := range v {
		if s.Eval(l) {
			out |= 1 << uint(i)
		}
	}
	return out
}

func (s *refSim) Begin(inputs map[aig.NodeID]bool) {
	s.vals = make(map[aig.NodeID]bool, s.n.NumNodes())
	s.inputs = inputs
}

func (s *refSim) Step(inputs map[aig.NodeID]bool) StepResult {
	s.Begin(inputs)
	var res StepResult
	for _, p := range s.n.Props {
		res.PropOK = append(res.PropOK, s.Eval(p.OK))
	}
	res.ConstraintsOK = true
	for _, c := range s.n.Constraints {
		if !s.Eval(c) {
			res.ConstraintsOK = false
		}
	}
	nextLatch := make(map[aig.NodeID]bool, len(s.n.Latches))
	for _, l := range s.n.Latches {
		nextLatch[l.Node] = s.Eval(l.Next)
	}
	var writes []pendingWrite
	for mi := range s.mems {
		for _, wp := range s.mems[mi].mem.Writes {
			if s.Eval(wp.En) {
				writes = append(writes, pendingWrite{mi: mi, addr: s.EvalVec(wp.Addr), data: s.EvalVec(wp.Data)})
			}
		}
	}
	for id, v := range nextLatch {
		s.latches[id] = v
	}
	for _, w := range writes {
		s.mems[w.mi].words[w.addr] = w.data
	}
	return res
}

// randNetlist builds a random sequential netlist of roughly `size` AND
// gates: Init0/Init1/InitX latches; a zero, an image and an
// arbitrary-init memory, the last with two read and two write ports; read
// data consumed by logic built before the read addresses are wired, so
// each address cone has larger NodeIDs than the data it selects (port i's
// address may use the data of ports before it); properties and
// environment constraints over the whole pool.
func randNetlist(rng *rand.Rand, size int) *aig.Netlist {
	n := aig.New("rand")
	var base []aig.Lit
	for i := 0; i < 6; i++ {
		base = append(base, n.NewInput(""))
	}
	var latches []aig.Lit
	for i := 0; i < 6; i++ {
		l := n.NewLatch("", aig.Init(i%3))
		latches = append(latches, l)
		base = append(base, l)
	}
	pick := func(pool []aig.Lit) aig.Lit {
		return pool[rng.Intn(len(pool))].XorInv(rng.Intn(2) == 1)
	}
	grow := func(pool []aig.Lit, k int) []aig.Lit {
		for i := 0; i < k; i++ {
			pool = append(pool, n.And(pick(pool), pick(pool)))
		}
		return pool
	}
	base = grow(base, size/4)

	type port struct {
		m  *aig.Memory
		rp *aig.ReadPort
	}
	var ports []port
	mems := []*aig.Memory{
		n.NewMemory("zero", 1+rng.Intn(3), 1+rng.Intn(8), aig.MemZero),
		n.NewMemory("image", 1+rng.Intn(3), 1+rng.Intn(8), aig.MemImage),
		n.NewMemory("arb", 1+rng.Intn(3), 1+rng.Intn(8), aig.MemArbitrary),
	}
	mems[1].Image = make([]uint64, mems[1].Words())
	for a := range mems[1].Image {
		mems[1].Image[a] = rng.Uint64() & (1<<uint(mems[1].DW) - 1)
	}
	all := append([]aig.Lit(nil), base...)
	for mi, m := range mems {
		for r := 0; r < 1+mi/2; r++ {
			rp := n.NewReadPort(m)
			ports = append(ports, port{m, rp})
			all = append(all, rp.DataLits()...)
		}
	}
	all = grow(all, size/2)

	// Wire read addresses only now: each cone is built from fresh gates.
	addrPool := append([]aig.Lit(nil), base...)
	for _, p := range ports {
		addrPool = grow(addrPool, 2*p.m.AW)
		addr := make([]aig.Lit, p.m.AW)
		for i := range addr {
			addr[i] = pick(addrPool)
		}
		n.SetReadAddr(p.m, p.rp, addr, pick(addrPool))
		addrPool = append(addrPool, p.rp.DataLits()...)
	}
	all = append(all, addrPool...)
	all = grow(all, size/4)

	for mi, m := range mems {
		for w := 0; w < 1+mi/2; w++ {
			addr := make([]aig.Lit, m.AW)
			for i := range addr {
				addr[i] = pick(all)
			}
			data := make([]aig.Lit, m.DW)
			for i := range data {
				data[i] = pick(all)
			}
			n.NewWritePort(m, addr, data, pick(all))
		}
	}
	for _, l := range latches {
		n.SetNext(l, pick(all))
	}
	for i := 0; i < 8; i++ {
		n.AddProperty(fmt.Sprintf("p%d", i), pick(all))
	}
	for i := 0; i < 2; i++ {
		n.AddConstraint(n.Or(pick(all), pick(all)))
	}
	return n
}

// randInputs draws an input assignment; some inputs are left out (they
// default to false) and sometimes the whole map is nil.
func randInputs(rng *rand.Rand, n *aig.Netlist) map[aig.NodeID]bool {
	if rng.Intn(8) == 0 {
		return nil
	}
	in := map[aig.NodeID]bool{}
	for _, id := range n.Inputs {
		if rng.Intn(4) != 0 {
			in[id] = rng.Intn(2) == 1
		}
	}
	return in
}

// TestDifferentialAgainstReference runs the dense Simulator and the
// map-based reference side by side on random netlists and stimuli.
func TestDifferentialAgainstReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randNetlist(rng, 20+rng.Intn(120))
		s, ref := New(n), newRef(n)

		// Eval straight after New sees all inputs false.
		ref.Begin(nil)
		for i := 0; i < 10; i++ {
			l := aig.MkLit(aig.NodeID(rng.Intn(n.NumNodes())), rng.Intn(2) == 1)
			if got, want := s.Eval(l), ref.Eval(l); got != want {
				t.Fatalf("seed %d: Eval(%v) before Begin = %v, reference %v", seed, l, got, want)
			}
		}

		// Install an InitX start state and an arbitrary-init image.
		for _, l := range n.Latches {
			if l.Init == aig.InitX && rng.Intn(2) == 1 {
				s.SetLatch(l.Node, true)
				ref.latches[l.Node] = true
			}
		}
		for mi, m := range n.Memories {
			if m.Init != aig.MemArbitrary {
				continue
			}
			for a := 0; a < m.Words(); a++ {
				w := rng.Uint64() & (1<<uint(m.DW) - 1)
				s.SetMemWord(mi, a, w)
				ref.mems[mi].words[a] = w
			}
		}

		for cyc := 0; cyc < 25; cyc++ {
			in := randInputs(rng, n)
			s.Begin(in)
			ref.Begin(in)
			for i := 0; i < 20; i++ {
				l := aig.MkLit(aig.NodeID(rng.Intn(n.NumNodes())), rng.Intn(2) == 1)
				if got, want := s.Eval(l), ref.Eval(l); got != want {
					t.Fatalf("seed %d cycle %d: Eval(%v) = %v, reference %v", seed, cyc, l, got, want)
				}
			}
			for _, m := range n.Memories {
				for _, rp := range m.Reads {
					if got, want := s.EvalVec(rp.DataLits()), ref.EvalVec(rp.DataLits()); got != want {
						t.Fatalf("seed %d cycle %d: read %s = %d, reference %d", seed, cyc, m.Name, got, want)
					}
				}
			}

			in = randInputs(rng, n)
			got, want := s.Step(in), ref.Step(in)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d cycle %d: Step = %v, reference %v", seed, cyc, got, want)
			}
			for _, l := range n.Latches {
				if s.LatchValue(l.Node) != ref.latches[l.Node] {
					t.Fatalf("seed %d cycle %d: latch %d differs", seed, cyc, l.Node)
				}
			}
			for mi, m := range n.Memories {
				for a := 0; a < m.Words(); a++ {
					if s.MemWord(mi, a) != ref.mems[mi].words[a] {
						t.Fatalf("seed %d cycle %d: %s[%d] = %d, reference %d",
							seed, cyc, m.Name, a, s.MemWord(mi, a), ref.mems[mi].words[a])
					}
				}
			}
		}
	}
}

// TestStepAllocsIndependentOfSize pins Step's allocations to the returned
// PropOK slice: the per-node state is preallocated, so a netlist ten times
// larger allocates exactly as often per cycle.
func TestStepAllocsIndependentOfSize(t *testing.T) {
	perStep := func(size int) (float64, int) {
		n := randNetlist(rand.New(rand.NewSource(3)), size)
		s := New(n)
		in := map[aig.NodeID]bool{}
		for _, id := range n.Inputs {
			in[id] = true
		}
		return testing.AllocsPerRun(50, func() { s.Step(in) }), n.NumNodes()
	}
	small, smallNodes := perStep(40)
	large, largeNodes := perStep(800)
	if largeNodes < 10*smallNodes {
		t.Fatalf("large netlist has %d nodes, want ≥10× the small one's %d", largeNodes, smallNodes)
	}
	if small != large || large > 2 {
		t.Fatalf("allocs per Step: %v on %d nodes, %v on %d nodes; want equal and ≤ 2",
			small, smallNodes, large, largeNodes)
	}
}

// TestNetlistGrowsAfterNew extends the netlist after the simulator is
// built — a new read port, logic over it, and a latch — and checks that
// the new nodes evaluate like the reference.
func TestNetlistGrowsAfterNew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := randNetlist(rng, 40)
	s, ref := New(n), newRef(n)
	in := randInputs(rng, n)
	s.Step(in)
	ref.Step(in)

	m := n.Memories[2]
	rp := n.NewReadPort(m)
	data := rp.DataLits()
	addr := make([]aig.Lit, m.AW)
	for i := range addr {
		addr[i] = n.And(n.Latches[i%len(n.Latches)].Next, aig.MkLit(n.Inputs[i%len(n.Inputs)], false))
	}
	n.SetReadAddr(m, rp, addr, aig.True)
	x := n.Xor(data[0], n.NewLatch("late", aig.Init1))

	in = randInputs(rng, n)
	s.Begin(in)
	ref.Begin(in)
	if got, want := s.EvalVec(data), ref.EvalVec(data); got != want {
		t.Fatalf("late read port = %d, reference %d", got, want)
	}
	if got, want := s.Eval(x), ref.Eval(x); got != want {
		t.Fatalf("late logic = %v, reference %v", got, want)
	}
}
