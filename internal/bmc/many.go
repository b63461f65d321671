package bmc

import (
	"context"

	"emmver/internal/aig"
)

// ManyResult reports the per-property outcomes of a CheckMany run plus the
// shared statistics, mirroring how the Industry I case study reports "206
// witnesses in 400s, 10 induction proofs in <1s".
type ManyResult struct {
	Results []*Result // one per property, indexed like props
	Stats   Stats
	// MaxWitnessDepth is the deepest counter-example found.
	MaxWitnessDepth int
	// DepthStats holds the run's per-depth deltas
	// (Options.CollectDepthStats). Both CheckMany and CheckManyParallel
	// fill it from the per-depth driver; the parallel entry sums every
	// worker's deltas at each depth index, so a column still totals to
	// the run's figure.
	DepthStats []DepthStat
}

// Counts tallies outcomes by kind.
func (m *ManyResult) Counts() map[Kind]int {
	out := make(map[Kind]int)
	for _, r := range m.Results {
		out[r.Kind]++
	}
	return out
}

// CheckMany verifies many reachability properties of one design while
// sharing a single incremental unrolling (and EMM constraint set) across
// all of them. At each depth the per-depth driver steps the configured
// strategy once per unresolved property, in order; the
// property-independent forward termination check runs once per depth
// (when UNSAT it proves every remaining property at once).
func CheckMany(n *aig.Netlist, props []int, opt Options) *ManyResult {
	return CheckManyCtx(context.Background(), n, props, opt)
}

// CheckManyCtx is CheckMany under a cancellation context; see CheckCtx.
// The static compile pipeline runs once for the whole property set, so its
// cost is shared the same way the unrolling is.
func CheckManyCtx(ctx context.Context, n *aig.Netlist, props []int, opt Options) *ManyResult {
	c := compileModel(n, props, &opt)
	e := newEngine(ctx, c.n, c.props[0], opt)
	out := &ManyResult{Results: checkCompiled(e.strategyFor(), c.props, e)}
	out.Stats = e.snapshotStats()
	out.DepthStats = e.depthStats
	out.finish(c, opt)
	return out
}

// finish records the deepest witness and translates every result to
// source coordinates. A property a cancelled parallel run never dispensed
// has no result yet and times out at depth 0.
func (m *ManyResult) finish(c compiled, opt Options) {
	for pi, r := range m.Results {
		if r == nil {
			r = &Result{Kind: KindTimeout}
		}
		if r.Kind == KindCE && r.Depth > m.MaxWitnessDepth {
			m.MaxWitnessDepth = r.Depth
		}
		m.Results[pi] = c.finish(r, c.srcProps[pi], opt)
	}
}

// addDepthStats adds each delta of ds into sum at its depth index,
// extending sum as needed.
func addDepthStats(sum, ds []DepthStat) []DepthStat {
	for _, d := range ds {
		for len(sum) <= d.Depth {
			sum = append(sum, DepthStat{Depth: len(sum)})
		}
		s := &sum[d.Depth]
		s.Clauses += d.Clauses
		s.Vars += d.Vars
		s.EMMClauses += d.EMMClauses
		s.StrashHits += d.StrashHits
		s.CompMemoHits += d.CompMemoHits
		s.Propagations += d.Propagations
		s.Conflicts += d.Conflicts
		s.Decisions += d.Decisions
		s.Solves += d.Solves
		s.Elapsed += d.Elapsed
	}
	return sum
}
