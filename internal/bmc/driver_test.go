package bmc

import (
	"testing"

	"emmver/internal/aig"
)

// Every entry point runs the one per-depth driver (checkCompiled), so the
// options it owns reach the multi-property entry points too. These tests
// pin the three places where the multi-property loops used to drift from
// Check: warm start, the k-induction strategy, and parallel DepthStats.

// TestCheckManyWarmStart: a warm-started multi-property run skips the
// checks below StartDepth, so it reaches the cold run's verdicts with
// fewer solver calls.
func TestCheckManyWarmStart(t *testing.T) {
	n := memCENetlist()
	opt := BMC2(10)
	opt.ValidateWitness = true
	warm := opt
	warm.StartDepth = 3
	for _, run := range []struct {
		name string
		fn   func(Options) *ManyResult
	}{
		{"CheckMany", func(o Options) *ManyResult { return CheckMany(n, []int{0}, o) }},
		{"CheckManyParallel", func(o Options) *ManyResult { return CheckManyParallel(n, []int{0}, o, 2) }},
	} {
		cold, wr := run.fn(opt), run.fn(warm)
		c, w := cold.Results[0], wr.Results[0]
		if c.Kind != KindCE || w.Kind != c.Kind || w.Depth != c.Depth {
			t.Fatalf("%s: cold %v, warm %v: want the same CE", run.name, c, w)
		}
		if w.Witness == nil || w.Witness.Replay(n, 0) != nil {
			t.Fatalf("%s: warm witness missing or does not replay", run.name)
		}
		if wr.Stats.SolveCalls >= cold.Stats.SolveCalls {
			t.Fatalf("%s: warm start issued %d solves, cold %d: StartDepth ignored",
				run.name, wr.Stats.SolveCalls, cold.Stats.SolveCalls)
		}
	}
}

// TestCheckManyRunsKInd: CheckMany runs the strategy the options select,
// so a k-induction run through it is the same run as Check — same
// verdict, depth, proof side and solver calls (kind's base-first order
// issues fewer solves than BMC-3's ladder on the writable wedge's depth-1
// counter-example). The portfolio strategy reaches Check's verdict too.
func TestCheckManyRunsKInd(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     *aig.Netlist
		depth int
	}{
		{"wedge", wedgeNetlist(), 20},
		{"shift-wedge", shiftWedgeNetlist(), 20},
		{"writable-wedge", writableWedgeNetlist(), 10},
	} {
		opt := KInd(tc.depth)
		opt.ValidateWitness = true
		want := Check(tc.n, 0, opt)
		mr := CheckMany(tc.n, []int{0}, opt)
		got := mr.Results[0]
		if got.Kind != want.Kind || got.Depth != want.Depth || got.ProofSide != want.ProofSide {
			t.Fatalf("%s: CheckMany(kind) %v (%s), Check(kind) %v (%s)",
				tc.name, got, got.ProofSide, want, want.ProofSide)
		}
		if mr.Stats.SolveCalls != want.Stats.SolveCalls {
			t.Fatalf("%s: CheckMany(kind) issued %d solves, Check(kind) %d",
				tc.name, mr.Stats.SolveCalls, want.Stats.SolveCalls)
		}
		if pr := CheckManyParallel(tc.n, []int{0}, opt, 2).Results[0]; pr.Kind != want.Kind || pr.Depth != want.Depth {
			t.Fatalf("%s: CheckManyParallel(kind) %v, Check(kind) %v", tc.name, pr, want)
		}

		port := Options{MaxDepth: tc.depth, UseEMM: true, Proofs: true, Portfolio: true}
		pw := Check(tc.n, 0, port)
		if pm := CheckMany(tc.n, []int{0}, port).Results[0]; pm.Kind != pw.Kind || pm.Depth != pw.Depth {
			t.Fatalf("%s: CheckMany(portfolio) %v, Check(portfolio) %v", tc.name, pm, pw)
		}
	}
}

// TestCheckManyParallelDepthStats: the parallel entry sums its workers'
// per-depth deltas, so the Solves column totals to the run's solver calls
// just as it does for the sequential run.
func TestCheckManyParallelDepthStats(t *testing.T) {
	m, props := manyCounter()
	opt := Options{MaxDepth: 30, Proofs: true, CollectDepthStats: true}
	for _, jobs := range []int{1, 2} {
		mr := CheckManyParallel(m.N, props, opt, jobs)
		if len(mr.DepthStats) == 0 {
			t.Fatalf("jobs=%d: no DepthStats", jobs)
		}
		solves := 0
		for i, d := range mr.DepthStats {
			if d.Depth != i {
				t.Fatalf("jobs=%d: DepthStats[%d] is depth %d", jobs, i, d.Depth)
			}
			solves += d.Solves
		}
		if solves != mr.Stats.SolveCalls {
			t.Fatalf("jobs=%d: DepthStats Solves sum to %d, Stats.SolveCalls = %d",
				jobs, solves, mr.Stats.SolveCalls)
		}
	}
}
