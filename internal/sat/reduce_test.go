package sat

import "testing"

// mkLearnt allocates a learnt clause with a given activity and attaches it,
// mirroring what recordLearnt does after conflict analysis.
func mkLearnt(s *Solver, act float32, lits ...Lit) cref {
	c := s.db.alloc(lits, true, -1)
	s.db.setAct(c, act)
	s.learnts = append(s.learnts, c)
	s.attach(c)
	return c
}

// TestReduceDBKeepsBinaryAndLockedLearnts is the regression test for the
// activity-sorted reduceDB: clauses of size two and clauses that are the
// reason of a standing assignment must survive reduction no matter how low
// their activity is, while low-activity long unlocked clauses are dropped.
func TestReduceDBKeepsBinaryAndLockedLearnts(t *testing.T) {
	s := New()
	vars := make([]Var, 40)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	pos := func(i int) Lit { return PosLit(vars[i]) }

	// A binary learnt with the lowest activity of all.
	bin := mkLearnt(s, 0, pos(0), pos(1))

	// A long learnt that is the reason of a standing assignment: lits[0]
	// is implied true by it. Give it rock-bottom activity too.
	locked := mkLearnt(s, 0, pos(2), pos(3), pos(4))
	s.trailLim = append(s.trailLim, len(s.trail)) // a decision level to live on
	s.uncheckedEnqueue(pos(2), locked)
	if !s.locked(locked) {
		t.Fatalf("setup: clause %d should be locked", locked)
	}

	// Filler: long, unlocked, with activities 1..20 so the low half is
	// unambiguous.
	var filler []cref
	for i := 0; i < 20; i++ {
		c := mkLearnt(s, float32(i+1), pos(5+i), pos(6+i), pos(7+i))
		filler = append(filler, c)
	}

	s.reduceDB()

	if s.db.isDeleted(bin) {
		t.Errorf("binary learnt was deleted by reduceDB")
	}
	if s.db.isDeleted(locked) {
		t.Errorf("reason-locked learnt was deleted by reduceDB")
	}
	deleted := 0
	for _, c := range filler {
		if s.db.isDeleted(c) {
			deleted++
		}
	}
	if deleted == 0 {
		t.Errorf("reduceDB deleted no unlocked long learnts")
	}
	// Survivors must all still be attached (present in s.learnts) and the
	// deleted ones gone from it.
	for _, c := range s.learnts {
		if s.db.isDeleted(c) {
			t.Errorf("deleted clause %d still listed in learnts", c)
		}
	}
	// The activity order must have been respected: every surviving filler
	// clause has activity >= every deleted one.
	minKept := float32(1e30)
	maxDel := float32(-1)
	for _, c := range filler {
		a := s.db.act(c)
		if s.db.isDeleted(c) {
			if a > maxDel {
				maxDel = a
			}
		} else if a < minKept {
			minKept = a
		}
	}
	if maxDel > minKept {
		t.Errorf("activity sort violated: deleted act %v > kept act %v", maxDel, minKept)
	}
}

// TestArenaCompaction checks that compaction preserves every live clause's
// literals and that crefs stay valid across it.
func TestArenaCompaction(t *testing.T) {
	var db clauseDB
	var live []cref
	var want [][]Lit
	for i := 0; i < 50; i++ {
		lits := []Lit{PosLit(Var(i)), NegLit(Var(i + 1)), PosLit(Var(i + 2))}
		c := db.alloc(lits, i%2 == 0, int32(i))
		if i%3 == 0 {
			db.markDeleted(c)
		} else {
			live = append(live, c)
			want = append(want, append([]Lit(nil), lits...))
		}
	}
	if !db.shouldCompact() {
		t.Fatalf("expected compaction to be due (wasted=%d, arena=%d)", db.wasted, len(db.arena))
	}
	db.compact()
	if db.wasted != 0 {
		t.Fatalf("wasted not reset after compact: %d", db.wasted)
	}
	for i, c := range live {
		got := db.lits(c)
		if len(got) != len(want[i]) {
			t.Fatalf("clause %d: %d lits after compact, want %d", c, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("clause %d lit %d: got %v want %v", c, j, got[j], want[i][j])
			}
		}
		if db.id(c) != int32(c) {
			t.Fatalf("clause %d lost its id: %d", c, db.id(c))
		}
	}
}

// TestSolveAfterReduceAndCompact drives a real search through enough
// conflicts that reduceDB (and possibly compaction) fire, then checks the
// solver still answers correctly on both branches.
func TestSolveAfterReduceAndCompact(t *testing.T) {
	// Pigeonhole 6/5 is UNSAT and conflict-heavy.
	s := New()
	holes, pigeons := 5, 6
	lit := func(p, h int) Lit { return PosLit(Var(p*holes + h)) }
	for i := 0; i < pigeons*holes; i++ {
		s.NewVar()
	}
	for p := 0; p < pigeons; p++ {
		row := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			row[h] = lit(p, h)
		}
		s.AddClause(row...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(lit(p1, h).Not(), lit(p2, h).Not())
			}
		}
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(6,5) = %v, want Unsat", got)
	}
	if s.Stats().Conflicts == 0 {
		t.Fatalf("expected conflicts during PHP search")
	}
}
