package sat

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// clauseView is everything a clause's storage holds, read back through the
// clauseDB accessors.
type clauseView struct {
	lits            []Lit
	learnt, deleted bool
	act             float32
	touch           int32
	lbd             int
	tier            uint8
}

func viewClause(db *clauseDB, c cref) clauseView {
	v := clauseView{learnt: db.isLearnt(c), deleted: db.isDeleted(c)}
	if v.deleted {
		return v
	}
	v.lits = append([]Lit(nil), db.lits(c)...)
	if v.learnt {
		v.act, v.touch, v.lbd, v.tier = db.act(c), db.touch(c), db.lbd(c), db.tier(c)
	}
	return v
}

func viewDB(db *clauseDB) []clauseView {
	out := make([]clauseView, len(db.hdr))
	for c := range db.hdr {
		out[c] = viewClause(db, cref(c))
	}
	return out
}

// liveWords is the arena size a fully compacted database needs: the live
// literals plus a prefix per live learnt.
func liveWords(db *clauseDB) int {
	n := 0
	for c := range db.hdr {
		if db.isDeleted(cref(c)) {
			continue
		}
		n += db.size(cref(c))
		if db.isLearnt(cref(c)) {
			n += prefixLen
		}
	}
	return n
}

// compactAndCompare compacts db and checks that every live clause kept its
// literals, its kind and (for learnts) its activity, touch stamp, glue and
// tier, that deleted clauses stay deleted, and that the arena holds nothing
// but live words. It returns the number of promoted clauses whose prefix
// the compaction dropped.
func compactAndCompare(t *testing.T, db *clauseDB) (promoted int) {
	t.Helper()
	for _, h := range db.hdr {
		if h.size&(flagPrefix|flagLearnt|flagDel) == flagPrefix {
			promoted++
		}
	}
	before := viewDB(db)
	db.compact()
	after := viewDB(db)
	for c := range before {
		if !reflect.DeepEqual(before[c], after[c]) {
			t.Errorf("clause %d changed across compaction:\nbefore %+v\nafter  %+v", c, before[c], after[c])
		}
		if before[c].deleted && db.size(cref(c)) != 0 {
			t.Errorf("deleted clause %d kept %d literals", c, db.size(cref(c)))
		}
	}
	if db.wasted != 0 {
		t.Errorf("wasted = %d after compaction", db.wasted)
	}
	if got, want := len(db.arena), liveWords(db); got != want {
		t.Errorf("arena holds %d words after compaction, live clauses need %d", got, want)
	}
	return promoted
}

// TestCompactionKeepsLearntMetadata covers each way a clause's block can
// change before compaction: deletion (original and learnt), promotion of a
// learnt to irredundant, strengthening in place, and unit learnts. The
// learnt metadata lives in the arena, so it must move with the literals.
func TestCompactionKeepsLearntMetadata(t *testing.T) {
	var db clauseDB
	lits := func(base, n int) []Lit {
		out := make([]Lit, n)
		for i := range out {
			out[i] = MkLit(Var(base+i), i%2 == 1)
		}
		return out
	}
	learnt := func(n int, act float32, touch int32, lbd uint16, tier uint8) cref {
		c := db.alloc(lits(int(act), n), true, -1)
		db.setAct(c, act)
		db.setTouch(c, touch)
		db.setLBDTier(c, lbd, tier)
		return c
	}
	orig := db.alloc(lits(0, 4), false, -1)
	delOrig := db.alloc(lits(10, 5), false, -1)
	delLearnt := learnt(6, 3, 30, 4, tierMid)
	keep := learnt(3, 1.5, 7, 3, tierMid)
	unit := learnt(1, 2.25, 9, 1, tierCore)
	promoted := learnt(4, 4.5, 11, 8, tierLocal)
	strOrig := db.alloc(lits(20, 5), false, -1)
	strLearnt := learnt(5, 5.75, 13, 65535, tierLocal)
	wide := learnt(40, 6.125, -1, 7, tierLocal)
	tail := db.alloc(lits(30, 3), false, -1)

	db.markDeleted(delOrig)
	db.markDeleted(delLearnt)
	db.promote(promoted)
	db.setSize(strOrig, 3)
	db.setSize(strLearnt, 2)
	db.wasted += 2 + 3 // as simplify accounts strengthening
	if want := 5 + 6 + prefixLen + 5; db.wasted != want {
		t.Fatalf("wasted = %d, want %d", db.wasted, want)
	}
	if db.isLearnt(promoted) {
		t.Fatalf("promoted clause still learnt")
	}
	if n := compactAndCompare(t, &db); n != 1 {
		t.Errorf("compaction dropped %d promoted prefixes, want 1", n)
	}

	// Spot checks against the values written, not only the pre-compaction
	// view.
	if db.act(keep) != 1.5 || db.touch(keep) != 7 || db.lbd(keep) != 3 || db.tier(keep) != tierMid {
		t.Errorf("learnt metadata lost: act %v touch %d lbd %d tier %d", db.act(keep), db.touch(keep), db.lbd(keep), db.tier(keep))
	}
	if db.size(unit) != 1 || db.act(unit) != 2.25 || db.tier(unit) != tierCore {
		t.Errorf("unit learnt lost its literal or metadata")
	}
	if db.lbd(strLearnt) != 65535 || db.size(strLearnt) != 2 {
		t.Errorf("strengthened learnt: lbd %d size %d", db.lbd(strLearnt), db.size(strLearnt))
	}
	if db.touch(wide) != -1 || db.size(wide) != 40 {
		t.Errorf("wide learnt: touch %d size %d", db.touch(wide), db.size(wide))
	}
	if got := db.lits(orig); len(got) != 4 || db.lits(tail)[2] != MkLit(32, false) {
		t.Errorf("original clauses moved wrongly: %v / %v", got, db.lits(tail))
	}

	// A clause allocated after compaction must not disturb the others, and
	// a second compaction with nothing to reclaim changes nothing.
	late := learnt(3, 7.5, 17, 5, tierMid)
	compactAndCompare(t, &db)
	if db.act(late) != 7.5 || db.act(keep) != 1.5 {
		t.Errorf("late learnt act %v, earlier act %v", db.act(late), db.act(keep))
	}
}

// TestSolverCompactionKeepsClauses runs real searches with reduction and
// inprocessing (which deletes, promotes and strengthens clauses) and checks
// every compaction against the same invariants.
func TestSolverCompactionKeepsClauses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var st Stats
	for round := 0; round < 4; round++ {
		s := New()
		addVars(s, 100)
		for i := 0; i < 426; i++ {
			var cl []Lit
			for _, v := range rng.Perm(100)[:3] {
				cl = append(cl, MkLit(Var(v), rng.Intn(2) == 1))
			}
			s.AddClause(cl...)
		}
		s.ConflictBudget = 300
		s.localMax = 50 // reduce often
		for i := 0; i < 5 && s.Okay(); i++ {
			s.Solve()
			if err := s.Simplify(); err != nil {
				t.Fatal(err)
			}
			compactAndCompare(t, &s.db)
		}
		st.LearntsDeleted += s.stats.LearntsDeleted
		st.SubsumedClauses += s.stats.SubsumedClauses
		st.StrengthenedClauses += s.stats.StrengthenedClauses
	}
	if st.LearntsDeleted == 0 || st.SubsumedClauses == 0 || st.StrengthenedClauses == 0 {
		t.Fatalf("searches too easy to exercise compaction: %+v", st)
	}
}

// A learnt clause that subsumes an original is promoted by Simplify and
// takes the original's place; the next compaction drops its prefix and
// keeps its literals.
func TestPromotedLearntSurvivesCompaction(t *testing.T) {
	s := New()
	addVars(s, 40)
	for v := 0; v < 40; v++ {
		s.Freeze(Var(v)) // keep elimination from dropping the learnt
	}
	s.AddClause(lits(1, 2, 3, 4)...)
	for i := 5; i+2 <= 40; i += 3 { // ballast, so Simplify does not compact
		s.AddClause(lits(i, -(i + 1), i+2)...)
	}
	l := mkLearnt(s, 0, lits(1, 2, 3)...)
	s.db.setLBDTier(l, 3, tierMid)
	if err := s.Simplify(); err != nil {
		t.Fatal(err)
	}
	if s.db.isLearnt(l) || s.db.isDeleted(l) || s.NumLearnts() != 0 {
		t.Fatalf("learnt %d not promoted: learnt=%v deleted=%v", l, s.db.isLearnt(l), s.db.isDeleted(l))
	}
	if n := compactAndCompare(t, &s.db); n != 1 {
		t.Fatalf("compaction dropped %d promoted prefixes, want 1", n)
	}
	if got := s.db.lits(l); !reflect.DeepEqual(got, lits(1, 2, 3)) {
		t.Fatalf("promoted clause holds %v after compaction", got)
	}
}

// TestProofIDIsCref checks the id invariant proof tracing relies on: each
// clause's proof entry sits at its cref, with the original's tag or the
// learnt marker.
func TestProofIDIsCref(t *testing.T) {
	s := New()
	s.EnableProofTracing()
	const pigeons, holes = 6, 5
	addVars(s, pigeons*holes)
	at := func(p, h int) Var { return Var(p*holes + h) }
	var tag int64
	for p := 0; p < pigeons; p++ {
		var cl []Lit
		for h := 0; h < holes; h++ {
			cl = append(cl, PosLit(at(p, h)))
		}
		s.AddClauseTagged(tag, cl)
		tag++
	}
	for h := 0; h < holes; h++ {
		for a := 0; a < pigeons; a++ {
			for b := a + 1; b < pigeons; b++ {
				s.AddClauseTagged(tag, []Lit{NegLit(at(a, h)), NegLit(at(b, h))})
				tag++
			}
		}
	}
	if s.Solve() != Unsat {
		t.Fatal("PHP(6,5) must be UNSAT")
	}
	if len(s.proof.off) != len(s.db.hdr) {
		t.Fatalf("%d proof entries for %d clauses", len(s.proof.off), len(s.db.hdr))
	}
	if int64(len(s.clauses)) != tag {
		t.Fatalf("%d originals stored for %d added", len(s.clauses), tag)
	}
	for i, c := range s.clauses {
		if got := s.proof.tags[s.db.id(c)]; got != int64(i) {
			t.Errorf("original %d (cref %d) has tag %d", i, c, got)
		}
	}
	learnts := 0
	for c := range s.db.hdr {
		if s.db.id(cref(c)) != int32(c) {
			t.Fatalf("clause %d has id %d", c, s.db.id(cref(c)))
		}
		if s.proof.isLearnt(int32(c)) != s.db.isLearnt(cref(c)) {
			t.Fatalf("clause %d: proof says learnt=%v, store says %v", c, s.proof.isLearnt(int32(c)), s.db.isLearnt(cref(c)))
		}
		if s.db.isLearnt(cref(c)) {
			learnts++
		}
	}
	if learnts == 0 {
		t.Fatal("no learnt clauses")
	}
}

func TestAllocRejectsOutOfStepProofID(t *testing.T) {
	var db clauseDB
	db.alloc([]Lit{PosLit(0), PosLit(1)}, false, 0)
	db.alloc([]Lit{PosLit(0), PosLit(2)}, true, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("alloc accepted proof id 5 for cref 2")
		}
	}()
	db.alloc([]Lit{PosLit(1), PosLit(2)}, false, 5)
}

// Core walks the proof with generation stamps kept on the solver; a second
// and third call must see fresh stamps and report the same tags in the same
// order.
func TestCoreRepeats(t *testing.T) {
	s := New()
	s.EnableProofTracing()
	addVars(s, 21)
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			s.AddClauseTagged(int64(i*4+j), []Lit{NegLit(Var(i*4 + j)), PosLit(Var(i*4 + j + 1))})
		}
	}
	s.AddClauseTagged(1000, []Lit{NegLit(20)})
	if s.Solve(PosLit(0)) != Unsat {
		t.Fatal("chain under assumption must be UNSAT")
	}
	first := s.Core()
	if len(first) == 0 {
		t.Fatal("empty core")
	}
	for i := 0; i < 3; i++ {
		if got := s.Core(); !reflect.DeepEqual(got, first) {
			t.Fatalf("Core call %d = %v, first call %v", i+2, got, first)
		}
	}

	p := New()
	p.EnableProofTracing()
	pigeonhole(p, 5, 4)
	if p.Solve() != Unsat {
		t.Fatal("PHP(5,4) must be UNSAT")
	}
	a, b := p.Core(), p.Core()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated Core differs: %v vs %v", a, b)
	}
}

func TestGrowDoubles(t *testing.T) {
	var s []int32
	prev := cap(s)
	for i := 0; i < 5000; i++ {
		s = append(grow(s, 1), int32(i))
		if c := cap(s); c != prev {
			if prev > 0 && c < 2*prev {
				t.Fatalf("capacity grew %d -> %d, less than double", prev, c)
			}
			prev = c
		}
	}
	for i, v := range s {
		if v != int32(i) {
			t.Fatalf("s[%d] = %d", i, v)
		}
	}
	r := resize([]uint32{1, 2}, 9)
	if len(r) != 9 || r[1] != 2 || r[8] != 0 {
		t.Fatalf("resize = %v", r)
	}
}

// TestBuildAllocationBound builds a solver of N variables and M clauses and
// bounds what the build allocates by 3x the storage it ends with. Growing
// every array by doubling allocates at most 2x a slice's final length when
// the final length is a power of two, as N, 2N and M*width are here;
// append's policy for large slices (about 1.25x) allocates about 5x and
// fails the bound.
func TestBuildAllocationBound(t *testing.T) {
	const nVars, nClauses, width = 1 << 12, 1 << 12, 4
	rng := rand.New(rand.NewSource(1))
	cnf := make([][]Lit, nClauses)
	for i := range cnf {
		perm := rng.Perm(nVars)[:width]
		cl := make([]Lit, width)
		for j, v := range perm {
			cl[j] = MkLit(Var(v), rng.Intn(2) == 1)
		}
		cnf[i] = cl
	}
	var s *Solver
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s = New()
			addVars(s, nVars)
			for _, cl := range cnf {
				s.AddClause(cl...)
			}
		}
	})
	storage := solverStorage(s)
	ratio := float64(res.AllocedBytesPerOp()) / float64(storage)
	t.Logf("build allocated %d bytes for %d bytes of storage (%.2fx)", res.AllocedBytesPerOp(), storage, ratio)
	if ratio > 3 {
		t.Fatalf("build allocated %.2fx its final storage, want <= 3x", ratio)
	}
}

// solverStorage is the byte size of the solver's clause and variable
// arrays at their current lengths.
func solverStorage(s *Solver) int {
	n := 0
	add := func(length int, elem uintptr) { n += length * int(elem) }
	add(len(s.assigns), unsafe.Sizeof(Undef))
	add(len(s.levels), 4)
	add(len(s.reasons), 4)
	add(len(s.polarity), 1)
	add(len(s.decider), 1)
	add(len(s.activity), 8)
	add(len(s.seen), 1)
	add(len(s.frozen), 4)
	add(len(s.elimed), 1)
	add(len(s.order.heap), 4)
	add(len(s.order.indices), unsafe.Sizeof(int(0)))
	add(len(s.trail), 4)
	add(len(s.clauses), 4)
	add(len(s.db.arena), 4)
	add(len(s.db.hdr), unsafe.Sizeof(clauseHdr{}))
	add(len(s.watches), unsafe.Sizeof([]watcher(nil)))
	add(len(s.binWatches), unsafe.Sizeof([]binWatcher(nil)))
	for _, w := range s.watches {
		add(len(w), unsafe.Sizeof(watcher{}))
	}
	for _, w := range s.binWatches {
		add(len(w), unsafe.Sizeof(binWatcher{}))
	}
	return n
}
