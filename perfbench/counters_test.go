package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"emmver/internal/serve"
)

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames())
	}
	same := func(what string, got []entry, want []layerMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program prints %d", what, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s %s, program prints %s %s", what, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestExactCounters pins the counters that repeat bit for bit between
// runs. A change may claim a count only on these; growth-lazy's and
// serve-mix's counts vary (see README.md) and are not pinned.
func TestExactCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every exact workload once")
	}
	for _, tc := range []struct {
		name string
		mk   newInstance
		want counters
	}{
		{"qsort-proof", newQsort, counters{solves: 193, conflicts: 6925, propagations: 20081675,
			emmClauses: 62125, emmInit: 59337, memoHits: 27, keptLatches: 33, latches: 65}},
		{"filter-many", newFilter, counters{solves: 11663, conflicts: 2935, propagations: 7805955,
			strashHits: 10401, emmClauses: 252529, memoHits: 3427}},
		{"growth-eager", newGrowth(false), counters{solves: 41, conflicts: 32728, propagations: 5458568,
			strashHits: 2460, emmClauses: 82246, emmInit: 107625, memoHits: 4100,
			simplifies: 12, eliminated: 1406}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := tc.mk(1, true)
			inst.run(nil)
			if p := inst.check(replayDirect); len(p) > 0 {
				t.Fatalf("wrong verdicts: %v", p)
			}
			if got := inst.counts(); got != tc.want {
				t.Errorf("counters\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestTracedRunRepeatsTheSearch runs one traced instance of each exact
// workload: the observed engine run must repeat the unobserved one's
// counters and per-depth EMM clause counts (tracedSolver fails the
// instance otherwise), and the engine spans must reach the layers the
// workload exercises.
func TestTracedRunRepeatsTheSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every exact workload twice")
	}
	for _, tc := range []struct {
		name   string
		mk     newInstance
		layers []string
	}{
		{"qsort-proof", newQsort, []string{"pass.ms", "unroll.ms", "emm.ms", "sat.ce_ms",
			"sat.forward_ms", "sat.backward_ms", "pba.abstract_ms", "pba.prove_ms", "bmc.self_ms"}},
		{"filter-many", newFilter, []string{"pass.ms", "unroll.ms", "emm.ms", "sat.ce_ms",
			"sim.replay_ms", "bmc.self_ms"}},
		{"growth-eager", newGrowth(false), []string{"emm.ms", "sat.ce_ms", "simplify.ms"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tracedSolver(tc.mk, true)(runConfig{seed: 1, budget: time.Nanosecond,
				traceTo: filepath.Join(t.TempDir(), "trace.json")})
			if o.failed > 0 || o.attempted != 2 {
				t.Fatalf("%d of %d failed: %v", o.failed, o.attempted, o.failures)
			}
			if err := o.covers(perLayer); err != nil {
				t.Fatal(err)
			}
			for _, m := range tc.layers {
				if o.metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, o.metrics[m].Value)
				}
			}
			if got, want := o.metrics["trace.conflicts"].Value, o.metrics["sat.conflicts"].Value; got != want {
				t.Errorf("trace.conflicts = %v, sat.conflicts = %v", got, want)
			}
			if d := o.metrics["trace.emm_depths_differing"].Value; d != 0 {
				t.Errorf("trace.emm_depths_differing = %v", d)
			}
		})
	}
}

// TestSeedsGiveIdenticalVerdicts runs the seeded workloads under two
// seeds: every property and every problem must get the same verdict.
func TestSeedsGiveIdenticalVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("solves filter-many twice")
	}
	verdicts := func(seed int64) map[int]string {
		w := newFilter(seed, false).(*filterInst)
		w.run(nil)
		if p := w.check(replayDirect); len(p) > 0 {
			t.Fatalf("seed %d: %v", seed, p)
		}
		out := map[int]string{}
		for pi, r := range w.many.Results {
			out[w.props[pi]] = r.Kind.String()
		}
		for li, r := range w.induct {
			out[w.left[li]] += "/" + r.Kind.String()
		}
		return out
	}
	if a, b := verdicts(1), verdicts(2); !reflect.DeepEqual(a, b) {
		t.Errorf("filter-many verdicts differ between seeds")
	}

	firsts := func(seed int64) map[*problem]string {
		s, err := newSession(seed)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(s.streams[0]) + len(s.streams[1]); n != 1852 {
			t.Fatalf("seed %d: %d requests per session, want 1852", seed, n)
		}
		res, err := s.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		out := map[*problem]string{}
		for _, rs := range res.replies {
			solved := map[*problem]*serve.Verdict{}
			for _, rp := range rs {
				if p := checkReply(rp, solved); len(p) > 0 {
					t.Fatalf("seed %d: %v", seed, p)
				}
				if rp.r.kind == "first" {
					out[rp.r.prob] = rp.st.Verdict.Kind
				}
			}
		}
		return out
	}
	a, b := firsts(1), firsts(2)
	if len(a) != len(b) {
		t.Fatalf("first sights: %d vs %d", len(a), len(b))
	}
	ka, kb := kindsOf(a), kindsOf(b)
	if !reflect.DeepEqual(ka, kb) {
		t.Errorf("serve-mix first-sight verdicts differ between seeds: %v vs %v", ka, kb)
	}
}

// kindsOf lists verdicts by problem identity (growth shape or counter
// limit), which the pool rebuilds identically for every seed.
func kindsOf(m map[*problem]string) map[[3]int]string {
	out := map[[3]int]string{}
	for p, k := range m {
		out[[3]int{p.aw, p.dw, p.limit}] = k
	}
	return out
}
