package sat

import "math"

// Clause storage. All clause literals live in one flat arena ([]Lit), and a
// clause is identified by a cref — an index into a parallel header slice.
// Compared to the previous []*clause representation this keeps propagation
// cache-friendly (an 8-byte watcher, literals contiguous in one backing
// array, no pointer chasing per visited clause) and makes clause references
// 4 bytes everywhere (watch lists, reason slots, proof chains).
//
// Layout. A header is 8 bytes: the offset of the clause's first literal and
// its size, whose top three bits are the learnt, deleted and prefix flags.
// Metadata that only learnt clauses need lives in the arena itself, as a
// 3-word prefix directly before the literals:
//
//	arena[off-3]  activity (float32 bits)
//	arena[off-2]  touch: conflict count at last analysis involvement
//	arena[off-1]  lbd<<8 | tier
//	arena[off:off+size]  literals
//
// Original clauses carry no prefix, so they pay 8 bytes of header and 4 per
// literal. Under proof tracing a clause's proof id is its cref: every alloc
// is paired with exactly one proofStore registration, in the same order.
//
// Deletion is logical: reduceDB marks a clause deleted and watch lists drop
// it lazily, exactly as before. What the arena adds is reclamation — when
// the deleted clauses' words exceed a third of the arena, compact() slides
// the live blocks (prefix included) left. Headers are never moved, so a cref
// stays valid for the lifetime of the solver; only the offsets stored inside
// headers change, which is invisible to every holder of a cref.
//
// Growth. The solver's monotonically growing arrays (arena, headers, the
// per-variable slices, trail, proof store, inprocessing indices) grow
// through grow(), which at least doubles capacity whenever a slice must
// move. append's policy for large slices (about 1.25x) allocates and copies
// roughly five times a slice's final size over its life; doubling bounds
// that at two.

// grow returns s with room for n more elements. When s must move, the new
// capacity is at least twice the old one.
func grow[T any](s []T, n int) []T {
	if n <= cap(s)-len(s) {
		return s
	}
	return regrow(s, n)
}

func regrow[T any](s []T, n int) []T {
	c := 2 * cap(s)
	if c < len(s)+n {
		c = len(s) + n
	}
	if c < 8 {
		c = 8
	}
	ns := make([]T, len(s), c)
	copy(ns, s)
	return ns
}

// resize returns s extended to length n (n >= len(s)), the new elements
// zeroed, growing capacity through grow.
func resize[T any](s []T, n int) []T {
	old := len(s)
	s = grow(s, n-old)[:n]
	clear(s[old:])
	return s
}

// cref names a clause in the solver's clause database.
type cref int32

// crefUndef is the "no clause" sentinel (decision variables, empty reasons).
const crefUndef cref = -1

// Flag bits in the top of clauseHdr.size; sizeMask extracts the literal
// count.
const (
	flagLearnt uint32 = 1 << 31
	flagDel    uint32 = 1 << 30
	flagPrefix uint32 = 1 << 29 // a learnt-metadata prefix precedes off
	sizeMask          = flagPrefix - 1
)

// prefixLen is the number of arena words in a learnt clause's prefix.
const prefixLen = 3

// Learnt-clause tiers (Chanseok Oh's three-tier scheme). The zero value is
// tierLocal so that a header allocated without explicit tiering is always
// eligible for deletion; recordLearnt assigns the real tier from the LBD.
const (
	// tierLocal clauses are the churn pool: reduced by activity, weakest
	// half dropped whenever the pool outgrows its budget.
	tierLocal uint8 = iota
	// tierMid clauses (LBD <= midLBD) survive reductions but are demoted to
	// tierLocal when they stay out of conflict analysis for midAgeLimit
	// conflicts.
	tierMid
	// tierCore clauses (LBD <= coreLBD) are never deleted.
	tierCore
)

// Tier thresholds and the mid-tier disuse horizon (in conflicts).
const (
	coreLBD     = 2
	midLBD      = 6
	midAgeLimit = 30000
)

// Sharing filter: a learnt clause is offered to the Export hook when its
// glue is at most shareLBD (or it is binary — binary clauses are glue
// <= 2 by construction and cheap to propagate), capped at shareMaxLits
// literals so the bus carries compact, high-value lemmas only. Variables
// rather than constants so the benchmark harness can sweep the filter;
// production code leaves them alone.
var (
	shareLBD     = midLBD
	shareMaxLits = 30
)

// tierForLBD maps a glue value to its tier.
func tierForLBD(lbd int) uint8 {
	switch {
	case lbd <= coreLBD:
		return tierCore
	case lbd <= midLBD:
		return tierMid
	}
	return tierLocal
}

// clauseHdr is the per-clause header, 8 bytes.
type clauseHdr struct {
	off  int32  // start of the literal block in the arena
	size uint32 // number of literals | flag bits
}

func (h clauseHdr) n() int32 { return int32(h.size & sizeMask) }

// clauseDB owns the arena and headers.
type clauseDB struct {
	arena  []Lit
	hdr    []clauseHdr
	wasted int // arena words owned by deleted clauses, pending compaction
}

// alloc stores a new clause and returns its cref. A learnt clause gets a
// zeroed prefix (activity 0, touch 0, lbd 0, tierLocal). id is the clause's
// proof id under tracing, -1 otherwise; it must equal the new cref.
func (db *clauseDB) alloc(lits []Lit, learnt bool, id int32) cref {
	c := cref(len(db.hdr))
	if id >= 0 && id != int32(c) {
		panic("sat: proof id out of step with clause allocation")
	}
	size := uint32(len(lits))
	pre := 0
	if learnt {
		size |= flagLearnt | flagPrefix
		pre = prefixLen
	}
	db.arena = grow(db.arena, pre+len(lits))
	if learnt {
		db.arena = append(db.arena, 0, 0, 0)
	}
	off := int32(len(db.arena))
	db.arena = append(db.arena, lits...)
	db.hdr = append(grow(db.hdr, 1), clauseHdr{off: off, size: size})
	return c
}

// lits returns the clause's literal block. The slice aliases the arena: it
// is valid until the next alloc or compact, and writes through (watched-
// literal reordering relies on this).
func (db *clauseDB) lits(c cref) []Lit {
	h := db.hdr[c]
	end := h.off + h.n()
	return db.arena[h.off:end:end]
}

func (db *clauseDB) size(c cref) int { return int(db.hdr[c].n()) }

// setSize shrinks a clause in place (strengthening); the flags are kept.
func (db *clauseDB) setSize(c cref, n int) {
	h := &db.hdr[c]
	h.size = h.size&^sizeMask | uint32(n)
}

func (db *clauseDB) isLearnt(c cref) bool { return db.hdr[c].size&flagLearnt != 0 }

func (db *clauseDB) isDeleted(c cref) bool { return db.hdr[c].size&flagDel != 0 }

// id returns the clause's proof id, which is its cref (see alloc).
func (db *clauseDB) id(c cref) int32 { return int32(c) }

// promote reclassifies a learnt clause as irredundant. Its prefix stays in
// the arena until the next compaction drops it.
func (db *clauseDB) promote(c cref) { db.hdr[c].size &^= flagLearnt }

// Learnt metadata accessors. Valid only for clauses allocated as learnt and
// not yet promoted or deleted.

func (db *clauseDB) act(c cref) float32 {
	return math.Float32frombits(uint32(db.arena[db.hdr[c].off-3]))
}

func (db *clauseDB) setAct(c cref, a float32) {
	db.arena[db.hdr[c].off-3] = Lit(math.Float32bits(a))
}

func (db *clauseDB) touch(c cref) int32 { return int32(db.arena[db.hdr[c].off-2]) }

func (db *clauseDB) setTouch(c cref, t int32) { db.arena[db.hdr[c].off-2] = Lit(t) }

func (db *clauseDB) lbd(c cref) int { return int(uint32(db.arena[db.hdr[c].off-1]) >> 8) }

func (db *clauseDB) tier(c cref) uint8 { return uint8(db.arena[db.hdr[c].off-1]) }

func (db *clauseDB) setLBDTier(c cref, lbd uint16, tier uint8) {
	db.arena[db.hdr[c].off-1] = Lit(uint32(lbd)<<8 | uint32(tier))
}

// markDeleted flags a clause for lazy watcher removal and accounts its
// words (prefix included) as reclaimable.
func (db *clauseDB) markDeleted(c cref) {
	h := &db.hdr[c]
	if h.size&flagDel == 0 {
		h.size |= flagDel
		db.wasted += int(h.n())
		if h.size&flagPrefix != 0 {
			db.wasted += prefixLen
		}
	}
}

// shouldCompact reports whether enough of the arena is garbage to be worth
// sliding the live blocks together.
func (db *clauseDB) shouldCompact() bool {
	return db.wasted > 0 && db.wasted*3 > len(db.arena)
}

// compact reclaims the blocks of deleted clauses and the prefixes of
// promoted ones. Headers stay in place (crefs remain valid); deleted
// clauses end up with a zero-length block and no prefix, which is safe
// because every access path checks isDeleted first. A live learnt's prefix
// moves with its literals. Must not be called while a lits() slice is live.
func (db *clauseDB) compact() {
	dst := int32(0)
	for i := range db.hdr {
		h := &db.hdr[i]
		n := h.n()
		if h.size&flagDel != 0 {
			h.off = dst
			h.size = h.size &^ (sizeMask | flagPrefix)
			continue
		}
		src := h.off
		if h.size&flagPrefix != 0 {
			if h.size&flagLearnt != 0 {
				src -= prefixLen
			} else {
				h.size &^= flagPrefix // promoted: the prefix is garbage
			}
		}
		copy(db.arena[dst:], db.arena[src:h.off+n])
		dst += h.off - src
		h.off = dst
		dst += n
	}
	db.arena = db.arena[:dst]
	db.wasted = 0
}
