package bmc

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/designs"
	"emmver/internal/rtl"
)

// The refactor-equivalence pin: every existing engine must produce
// byte-identical verdicts, depths, witnesses, and deterministic Stats
// counters across the case-study designs, compared against golden fixtures
// generated before the model/session/strategy extraction. Regenerate with
//
//	go test ./internal/bmc -run TestRefactorEquivalence -update-golden
//
// only when a change is *meant* to alter engine behavior.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/refactor_golden.json from the current engines")

// goldenRecord is one (design, engine) outcome. Wall-clock and heap fields
// are excluded; everything recorded is deterministic for a sequential
// single-threaded run. The portfolio engine races two lanes, so only its
// verdict and depth are pinned (Full=false).
type goldenRecord struct {
	Design string `json:"design"`
	Engine string `json:"engine"`
	Full   bool   `json:"full"`

	Kind      string `json:"kind"`
	Depth     int    `json:"depth"`
	ProofSide string `json:"proof_side,omitempty"`
	Witness   string `json:"witness,omitempty"`

	SolveCalls   int   `json:"solve_calls,omitempty"`
	Conflicts    int64 `json:"conflicts,omitempty"`
	Clauses      int   `json:"clauses,omitempty"`
	Vars         int   `json:"vars,omitempty"`
	Restarts     int64 `json:"restarts,omitempty"`
	RestartsLuby int64 `json:"restarts_luby,omitempty"`
	RestartsEMA  int64 `json:"restarts_ema,omitempty"`
	Simplifies   int64 `json:"simplifies,omitempty"`
	Subsumed     int64 `json:"subsumed,omitempty"`
	Strengthened int64 `json:"strengthened,omitempty"`
	Eliminated   int64 `json:"eliminated_vars,omitempty"`
	EMMClauses   int   `json:"emm_clauses,omitempty"`
}

// witnessDigest renders a Witness deterministically (maps sorted).
func witnessDigest(w *Witness) string {
	if w == nil {
		return ""
	}
	out := fmt.Sprintf("len=%d", w.Length)
	for f, in := range w.Inputs {
		ids := make([]int, 0, len(in))
		for id := range in {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		out += fmt.Sprintf("|f%d:", f)
		for _, id := range ids {
			v := 0
			if in[aig.NodeID(id)] {
				v = 1
			}
			out += fmt.Sprintf("%d=%d,", id, v)
		}
	}
	ids := make([]int, 0, len(w.InitLatches))
	for id := range w.InitLatches {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	out += "|latches:"
	for _, id := range ids {
		v := 0
		if w.InitLatches[aig.NodeID(id)] {
			v = 1
		}
		out += fmt.Sprintf("%d=%d,", id, v)
	}
	for mi, words := range w.MemInit {
		addrs := make([]int, 0, len(words))
		for a := range words {
			addrs = append(addrs, a)
		}
		sort.Ints(addrs)
		out += fmt.Sprintf("|mem%d:", mi)
		for _, a := range addrs {
			out += fmt.Sprintf("%d=%d,", a, words[a])
		}
	}
	return out
}

// growthEquivNetlist is the §S2 shared-address shape (exp.GrowthSolveNetlist
// at reduced widths), rebuilt locally: the exp package imports bmc, so the
// test cannot import it back.
func growthEquivNetlist() *aig.Netlist {
	m := rtl.NewModule("growth-equiv")
	mem := m.Memory("mem", 6, 8, aig.MemArbitrary)
	addr := m.Input("a", 6)
	mem.Write(addr, m.Input("wd", 8), m.InputBit("we"))
	re0 := m.InputBit("re0")
	re1 := m.InputBit("re1")
	rd0 := mem.Read(addr, re0)
	rd1 := mem.Read(addr, re1)
	both := m.N.And(re0, re1)
	ok := m.N.And(both, m.Eq(rd0, rd1).Not()).Not()
	m.AssertAlways("shared-read-agree", ok)
	m.Done()
	return m.N
}

func equivDesigns() []struct {
	name  string
	n     *aig.Netlist
	prop  int
	depth int
} {
	q := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 4, DataW: 8, StackAW: 4})
	f := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 16})
	l := designs.NewLookup(designs.LookupConfig{AW: 4, DW: 6, NumProps: 8, Latency: 6})
	return []struct {
		name  string
		n     *aig.Netlist
		prop  int
		depth int
	}{
		{"quicksort-p1", q.Netlist(), q.P1Index, 10},
		{"filter-0", f.Netlist(), 0, 12},
		{"lookup-inv", l.Netlist(), l.InvariantIndex, 8},
		{"growth", growthEquivNetlist(), 0, 10},
	}
}

// equivManyDesigns are the multi-property rows' designs: equivDesigns'
// filter (all 16 properties) and lookup (its 8 reachability properties),
// built with the same configurations.
func equivManyDesigns() []struct {
	name  string
	n     *aig.Netlist
	props []int
	depth int
} {
	f := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 16})
	l := designs.NewLookup(designs.LookupConfig{AW: 4, DW: 6, NumProps: 8, Latency: 6})
	return []struct {
		name  string
		n     *aig.Netlist
		props []int
		depth int
	}{
		{"filter", f.Netlist(), f.PropIndices(), 12},
		{"lookup", l.Netlist(), l.ReachIndices, 8},
	}
}

// countersRecord pins a run's deterministic Stats counters.
func countersRecord(st Stats) goldenRecord {
	return goldenRecord{
		Full:       true,
		SolveCalls: st.SolveCalls, Conflicts: st.Conflicts,
		Clauses: st.Clauses, Vars: st.Vars,
		Restarts: st.Restarts, RestartsLuby: st.RestartsLuby,
		RestartsEMA: st.RestartsEMA, Simplifies: st.Simplifies,
		Subsumed: st.SubsumedClauses, Strengthened: st.StrengthenedClauses,
		Eliminated: st.EliminatedVars, EMMClauses: st.EMM.Clauses(),
	}
}

// runEquivMany pins the multi-property and fleet execution modes on one
// design:
//   - many/<engine>: sequential CheckMany, one row per property (verdict
//     and witness) plus a Full "total" row with the run's counters and
//     its deepest witness as Depth.
//   - parallel/jobs<N>: CheckManyParallel, per-property verdicts.
//   - cube/jobs2: Check with cube-and-conquer at a conflict budget low
//     enough to force splits, per-property verdicts.
//   - dist/workers2: a loopback CheckDist fleet, per-property verdicts.
//
// The fleet modes schedule work across goroutines, so only Kind, Depth
// (and for parallel, ProofSide) are deterministic there.
func runEquivMany(t *testing.T, name string, n *aig.Netlist, props []int, depth int) []goldenRecord {
	t.Helper()
	var out []goldenRecord
	add := func(engine, design string, rec goldenRecord) {
		rec.Design, rec.Engine = design, engine
		out = append(out, rec)
	}
	propName := func(p int) string { return fmt.Sprintf("%s#%d", name, p) }
	for _, engine := range []string{"bmc2", "bmc3"} {
		opt := Options{MaxDepth: depth, UseEMM: true, Proofs: engine == "bmc3"}
		mr := CheckMany(n, props, opt)
		for pi, r := range mr.Results {
			add("many/"+engine, propName(props[pi]), goldenRecord{Kind: r.Kind.String(),
				Depth: r.Depth, ProofSide: r.ProofSide, Witness: witnessDigest(r.Witness)})
		}
		total := countersRecord(mr.Stats)
		total.Depth = mr.MaxWitnessDepth
		add("many/"+engine, name+"/total", total)
	}
	bmc3 := Options{MaxDepth: depth, UseEMM: true, Proofs: true}
	for _, jobs := range []int{1, 2} {
		mr := CheckManyParallel(n, props, bmc3, jobs)
		for pi, r := range mr.Results {
			add(fmt.Sprintf("parallel/jobs%d", jobs), propName(props[pi]),
				goldenRecord{Kind: r.Kind.String(), Depth: r.Depth, ProofSide: r.ProofSide})
		}
	}
	old := cubeConflictBudget
	cubeConflictBudget = 1
	cube := bmc3
	cube.Cube, cube.Jobs = true, 2
	for _, p := range props {
		r := Check(n, p, cube)
		add("cube/jobs2", propName(p), goldenRecord{Kind: r.Kind.String(), Depth: r.Depth})
	}
	cubeConflictBudget = old
	dist := bmc3
	dist.Share = true
	for _, p := range props {
		results, errs := runDistFleet(t, n, p, dist, 2, -1)
		for w, r := range results {
			if errs[w] != nil || r == nil {
				t.Fatalf("dist %s worker %d: %v", propName(p), w, errs[w])
			}
			if r.Kind != results[0].Kind || r.Depth != results[0].Depth {
				t.Fatalf("dist %s: workers disagree: %v vs %v", propName(p), r, results[0])
			}
		}
		add("dist/workers2", propName(p), goldenRecord{Kind: results[0].Kind.String(), Depth: results[0].Depth})
	}
	return out
}

func runEquivEngine(t *testing.T, engine string, n *aig.Netlist, prop, depth int) (rec goldenRecord) {
	t.Helper()
	opt := Options{MaxDepth: depth}
	switch engine {
	case "bmc1":
		opt.Proofs = true
	case "bmc2":
		opt.UseEMM = true
	case "bmc3":
		opt.UseEMM = true
		opt.Proofs = true
	case "portfolio":
		opt.UseEMM = true
		opt.Proofs = true
		opt.Portfolio = true
	case "pba":
		opt.UseEMM = true
		opt.StabilityDepth = 10
		res := ProveWithPBA(n, prop, opt)
		r := res.Phase1
		if res.Proof != nil {
			r = res.Proof
		}
		return goldenRecord{
			Full: true, Kind: res.Kind().String(), Depth: r.Depth,
			ProofSide: r.ProofSide, Witness: witnessDigest(r.Witness),
			SolveCalls: r.Stats.SolveCalls, Conflicts: r.Stats.Conflicts,
			Clauses: r.Stats.Clauses, Vars: r.Stats.Vars,
			Restarts: r.Stats.Restarts, RestartsLuby: r.Stats.RestartsLuby,
			RestartsEMA: r.Stats.RestartsEMA, Simplifies: r.Stats.Simplifies,
			Subsumed: r.Stats.SubsumedClauses, Strengthened: r.Stats.StrengthenedClauses,
			Eliminated: r.Stats.EliminatedVars, EMMClauses: r.Stats.EMM.Clauses(),
		}
	default:
		t.Fatalf("unknown engine %s", engine)
	}
	r := Check(n, prop, opt)
	rec = goldenRecord{Kind: r.Kind.String(), Depth: r.Depth}
	if engine == "portfolio" {
		// Two racing lanes: verdict and depth are deterministic, the rest
		// (which lane answered, solver work split) is not.
		return rec
	}
	rec.Full = true
	rec.ProofSide = r.ProofSide
	rec.Witness = witnessDigest(r.Witness)
	rec.SolveCalls = r.Stats.SolveCalls
	rec.Conflicts = r.Stats.Conflicts
	rec.Clauses = r.Stats.Clauses
	rec.Vars = r.Stats.Vars
	rec.Restarts = r.Stats.Restarts
	rec.RestartsLuby = r.Stats.RestartsLuby
	rec.RestartsEMA = r.Stats.RestartsEMA
	rec.Simplifies = r.Stats.Simplifies
	rec.Subsumed = r.Stats.SubsumedClauses
	rec.Strengthened = r.Stats.StrengthenedClauses
	rec.Eliminated = r.Stats.EliminatedVars
	rec.EMMClauses = r.Stats.EMM.Clauses()
	return rec
}

func TestRefactorEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine sweep")
	}
	goldenPath := filepath.Join("testdata", "refactor_golden.json")
	var got []goldenRecord
	for _, d := range equivDesigns() {
		for _, engine := range []string{"bmc1", "bmc2", "bmc3", "portfolio", "pba"} {
			rec := runEquivEngine(t, engine, d.n, d.prop, d.depth)
			rec.Design, rec.Engine = d.name, engine
			got = append(got, rec)
		}
	}
	for _, d := range equivManyDesigns() {
		got = append(got, runEquivMany(t, d.name, d.n, d.props, d.depth)...)
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), goldenPath)
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden fixtures missing (run with -update-golden): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d records, run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s/%s drifted:\n  want %+v\n  got  %+v",
				want[i].Design, want[i].Engine, want[i], got[i])
		}
	}
}
