package exp

import (
	"reflect"
	"strings"
	"testing"

	"emmver/internal/bmc"
)

// A tiny LazyAB must agree on the verdict and fill in the medians and the
// clause accounting; the property is valid, so everything is NO_CE and the
// lazy side answers from the relaxation alone.
func TestLazyABSmoke(t *testing.T) {
	cfg := GrowthSolveConfig{AW: 4, DW: 4, MaxK: 6, NoOpt: true}
	r, err := LazyAB(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Off[0].Kind != bmc.KindNoCE || r.On[0].Kind != bmc.KindNoCE {
		t.Fatalf("verdicts: eager=%v lazy=%v, want NO_CE", r.Off[0].Kind, r.On[0].Kind)
	}
	if r.OffMedian <= 0 || r.OnMedian <= 0 || r.OffEMM <= 0 {
		t.Fatalf("result not filled in: %+v", r)
	}
	if r.OnEMM > r.OffEMM {
		t.Fatalf("lazy emitted MORE EMM clauses: %d vs %d", r.OnEMM, r.OffEMM)
	}
	out := RenderLazyAB(r)
	if !strings.Contains(out, "avoided") || !strings.Contains(out, "NO_CE") {
		t.Fatalf("render missing fields:\n%s", out)
	}
}

// The §S7 acceptance bar on the full growth configuration: at depth 24 the
// demand-driven encoding must avoid at least 40% of the eager EMM clause
// set while reporting the identical verdict.
func TestLazyGrowthClauseReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-depth growth run")
	}
	r, err := LazyAB(DefaultLazyAB(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Off[0].Kind != bmc.KindNoCE {
		t.Fatalf("growth property must hold, got %v", r.Off[0].Kind)
	}
	if r.Reduction < 0.40 {
		t.Fatalf("lazy EMM clause reduction %.1f%% below the 40%% bar (%d eager vs %d lazy)",
			100*r.Reduction, r.OffEMM, r.OnEMM)
	}
}

// Lazy refinement must be deterministic: two identical LazyEMM runs of the
// growth design (the benchmark's growth-lazy configuration) issue the same
// axioms, so every search counter and every per-depth delta agrees. Only
// wall-clock and the heap high-water mark may differ.
func TestLazyGrowthRepeats(t *testing.T) {
	n := GrowthSolveNetlist(DefaultGrowthSolve())
	opt := bmc.BMC2(40)
	if testing.Short() {
		opt.MaxDepth = 20
	}
	opt.LazyEMM = true
	opt.CollectDepthStats = true
	run := func() (bmc.Stats, []bmc.DepthStat) {
		r := bmc.Check(n, 0, opt)
		if r.Kind != bmc.KindNoCE {
			t.Fatalf("verdict %v, want NO_CE", r)
		}
		r.Stats.Elapsed, r.Stats.PeakHeapMB = 0, 0
		for i := range r.DepthStats {
			r.DepthStats[i].Elapsed = 0
		}
		return r.Stats, r.DepthStats
	}
	sa, da := run()
	sb, db := run()
	if sa.LazySpurious == 0 {
		t.Fatalf("no spurious lazy model by depth %d: the test does not reach refinement", opt.MaxDepth)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("Stats differ between identical runs:\n%+v\n%+v", sa, sb)
	}
	if len(da) != len(db) {
		t.Fatalf("%d depth rows vs %d", len(da), len(db))
	}
	for i := range da {
		if !reflect.DeepEqual(da[i], db[i]) {
			t.Errorf("depth %d differs:\n%+v\n%+v", i, da[i], db[i])
		}
	}
}
