package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/btor2"
	"emmver/internal/pass"
	"emmver/internal/spec"
	"emmver/internal/verilog"
)

// paramCounterSrc is a counter whose assertion fails at depth 5, declared
// after a W-bit register the property never reads. The compile pipeline
// removes that register, so every W lands on one cache family, but W
// shifts the node ids of the counter and its inputs: a witness is only
// valid for the W it was found under.
const paramCounterSrc = `
module pc #(parameter W = 2) (input clk, input [W-1:0] side, input en);
  reg [W-1:0] junk;
  always @(posedge clk) junk <= junk ^ side;
  reg [3:0] cnt;
  always @(posedge clk) if (en) cnt <= cnt + 4'd1;
  assert(cnt != 4'd5, "never5");
endmodule`

func paramReq(w uint64) Request {
	return Request{Format: "verilog", Source: paramCounterSrc, Prop: 0,
		Params: map[string]uint64{"W": w},
		Spec:   spec.Spec{Engine: spec.EngineBMC3, Depth: 12}}
}

// refNetlist parses a request's source straight through the frontends,
// without the server's helpers.
func refNetlist(t *testing.T, req Request) *aig.Netlist {
	t.Helper()
	var n *aig.Netlist
	var err error
	switch req.Format {
	case "btor2":
		n, err = btor2.Read(strings.NewReader(req.Source))
	case "verilog":
		var file *verilog.SourceFile
		if file, err = verilog.Parse(req.Source); err == nil {
			top := req.Top
			if top == "" {
				top = file.Modules[len(file.Modules)-1].Name
			}
			n, err = verilog.ElaborateWithParams(file, top, req.Params)
		}
	default:
		t.Fatalf("format %q", req.Format)
	}
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// Two submissions differing only in an elaboration parameter outside the
// property cone share a family but not a source: the second is answered
// from the cache without the first one's witness, which would not replay
// on its netlist.
func TestParamsSeparateSourceKeys(t *testing.T) {
	_, c := testServer(t)
	first := submitWait(t, c, paramReq(2))
	if first.Cached || first.Verdict.Kind != "CE" || first.Verdict.Witness == nil {
		t.Fatalf("W=2: %+v", first)
	}
	if err := first.Verdict.Witness.Replay(refNetlist(t, paramReq(2)), 0); err != nil {
		t.Fatalf("W=2 witness does not replay on its own netlist: %v", err)
	}
	second := submitWait(t, c, paramReq(6))
	if second.Family != first.Family {
		t.Fatalf("parameter outside the cone split the family:\n %s\n %s", first.Family, second.Family)
	}
	if !second.Cached || second.Verdict.Kind != "CE" || second.Verdict.Depth != first.Verdict.Depth {
		t.Fatalf("W=6: %+v", second)
	}
	if w := second.Verdict.Witness; w != nil {
		if err := w.Replay(refNetlist(t, paramReq(6)), 0); err != nil {
			t.Fatalf("W=6 got a witness that does not replay on its netlist: %v", err)
		}
	}
	if sourceKey("verilog", "", paramReq(2).Params, 0, []byte(paramCounterSrc)) ==
		sourceKey("verilog", "", paramReq(6).Params, 0, []byte(paramCounterSrc)) {
		t.Fatal("parameters do not reach the source key")
	}
	if sourceKey("verilog", "", nil, 0, []byte(paramCounterSrc)) != SourceKey("verilog", "", 0, []byte(paramCounterSrc)) {
		t.Fatal("source key of a request without parameters changed")
	}
}

// refServer predicts every reply from first principles: its own parse,
// pass.Compile, NetlistKey and FamilyID, a verdict cache of its own keyed
// by full request identity, and a cold solve for every request it expects
// the server to solve.
type refServer struct {
	t       *testing.T
	cache   *Cache
	indexed map[string]bool // sources the server has compiled, by identity and passes
}

func (r *refServer) check(s *Server, c *Client, req Request) {
	t := r.t
	t.Helper()
	n := refNetlist(t, req)
	canon := req.Spec.Canonical()
	cc, err := pass.Compile(n, []int{req.Prop}, pass.Options{Spec: canon.Passes})
	if err != nil {
		t.Fatal(err)
	}
	netKey := NetlistKey(cc.N, cc.Props)
	famID, probID := FamilyID(netKey, req.Spec), ProblemID(netKey, req.Spec)
	srcID := fmt.Sprintf("%s|%s|%v|%d|%s", req.Format, req.Top, req.Params, req.Prop, req.Source)
	wantSourceHit := r.indexed[srcID+"|"+canon.Passes]
	r.indexed[srcID+"|"+canon.Passes] = true
	hit := r.cache.Peek(famID, probID, canon.Depth, srcID)

	before := s.CacheStats()
	got := submitWait(t, c, req)
	after := s.CacheStats()
	what := fmt.Sprintf("%s depth %d engine %s lazy %v params %v", req.Format, req.Spec.Depth,
		req.Spec.Engine, req.Spec.Lazy, req.Params)

	if got.Key != famID+fmt.Sprintf(":d%d", canon.Depth) || got.Family != famID {
		t.Fatalf("%s: key %s family %s, want %s:d%d", what, got.Key, got.Family, famID, canon.Depth)
	}
	moved := (after.Hits - before.Hits) + (after.WarmHits - before.WarmHits) + (after.Misses - before.Misses)
	if moved != 1 {
		t.Fatalf("%s: moved %d of hits/warm/misses (before %+v, after %+v)", what, moved, before, after)
	}
	if sh := after.SourceHits - before.SourceHits; sh != map[bool]int64{true: 1}[wantSourceHit] {
		t.Fatalf("%s: source hits moved %d, want index hit %v", what, sh, wantSourceHit)
	}
	if w := got.Verdict.Witness; w != nil {
		if err := w.Replay(n, req.Prop); err != nil {
			t.Fatalf("%s: witness does not replay on its own netlist: %v", what, err)
		}
	}

	if hit != nil && hit.Exact {
		if !got.Cached || got.WarmStart != 0 || after.Hits != before.Hits+1 {
			t.Fatalf("%s: want an exact hit, got cached=%v warm=%d", what, got.Cached, got.WarmStart)
		}
		want := hit.Verdict
		if got.Verdict.Kind != want.Kind || got.Verdict.Depth != want.Depth ||
			!reflect.DeepEqual(got.Verdict.Witness, want.Witness) {
			t.Fatalf("%s: cached verdict %+v, want %+v", what, got.Verdict, want)
		}
		r.cache.Lookup(famID, probID, canon.Depth, srcID)
		return
	}
	wantWarm := 0
	if hit != nil && req.Spec.WarmEligible() {
		wantWarm = hit.WarmFrom
	}
	if got.Cached || got.WarmStart != wantWarm {
		t.Fatalf("%s: cached=%v warm=%d, want a solve warm-started at %d", what, got.Cached, got.WarmStart, wantWarm)
	}
	cold, err := req.Spec.RunCtx(context.Background(), n, req.Prop, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Verdict.Kind != cold.Kind.String() || got.Verdict.Depth != cold.Depth {
		t.Fatalf("%s: verdict %s depth %d, cold solve %s depth %d", what,
			got.Verdict.Kind, got.Verdict.Depth, cold.Kind, cold.Depth)
	}
	if got.Verdict.Kind == "CE" && got.Verdict.Witness == nil {
		t.Fatalf("%s: solved CE without a witness", what)
	}
	r.cache.Lookup(famID, probID, canon.Depth, srcID)
	v := *got.Verdict
	v.SourceKey = srcID
	r.cache.Store(famID, probID, &v)
}

// Every reply over a mixed stream (duplicates, decoy-salted variants, lazy
// resubmissions, warm starts, a witness-bearing counter-example, parameter
// variants, a cross-engine proof) matches the reference: the source index
// changes how a key is found, never what it is or what it answers.
func TestSourceIndexDifferential(t *testing.T) {
	s, c := testServer(t)
	ref := &refServer{t: t, cache: NewCache(0), indexed: map[string]bool{}}
	growth, salted := growthBTOR2(t, 0), growthBTOR2(t, 2)
	g := func(src string, depth int, lazy bool) Request {
		return Request{Format: "btor2", Source: src, Prop: 0,
			Spec: spec.Spec{Engine: spec.EngineBMC2, Depth: depth, Lazy: lazy}}
	}
	ctr := func(src string, depth int) Request {
		return Request{Format: "verilog", Source: src, Prop: 0,
			Spec: spec.Spec{Engine: spec.EngineBMC3, Depth: depth}}
	}
	wedge := func(engine string, depth int) Request {
		return Request{Format: "btor2", Source: wedgeBTOR2(t), Prop: 0,
			Spec: spec.Spec{Engine: engine, Depth: depth}}
	}
	noPasses := func(r Request) Request {
		r.Spec.Passes = "none"
		return r
	}
	stream := []Request{
		g(growth, 8, false), g(growth, 8, false), // first sight, duplicate
		g(salted, 8, false), g(salted, 8, false), // decoy-salted, then from the index
		g(growth, 6, true),                        // lazy, shallower
		g(growth, 12, false), g(growth, 12, true), // warm start, lazy duplicate
		g(salted, 16, true), g(growth, 14, false), // lazy warm start from the salted source
		noPasses(g(growth, 8, false)), noPasses(g(growth, 8, false)), // same bytes, other pipeline
		ctr(counterSrc, 15), ctr(counterSrc, 15), ctr(counterRenamedSrc, 15),
		ctr(counterSrc, 5), ctr(counterSrc, 40),
		paramReq(2), paramReq(6), paramReq(6), paramReq(2),
		wedge(spec.EngineKInd, 10), wedge(spec.EngineBMC3, 25), wedge(spec.EngineBMC3, 25),
	}
	for _, req := range stream {
		ref.check(s, c, req)
	}
	if st := s.CacheStats(); st.SourceHits == 0 {
		t.Fatalf("no request came from the source index: %+v", st)
	}
}

// A submission that fails to parse or names a missing property is never
// indexed: resubmitting it is rejected again.
func TestSourceIndexNeverIndexesRejects(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(s.Shutdown)
	bad := []Request{
		{Format: "btor2", Source: "1 sort bitvec 1\n2 bogus 1\n", Spec: spec.Spec{Depth: 4}},
		{Format: "verilog", Source: counterSrc, Prop: 3, Spec: spec.Spec{Depth: 4}},
	}
	for _, req := range bad {
		for i := 0; i < 2; i++ {
			if _, status, err := s.submit(req); err == nil || status != http.StatusBadRequest {
				t.Fatalf("%s submission %d: status %d err %v, want 400", req.Format, i+1, status, err)
			}
		}
	}
	if st := s.CacheStats(); st.SourceHits != 0 {
		t.Fatalf("a rejected source reached the index: %+v", st)
	}
}

// An index hit whose family was evicted parses the source after all and
// solves it.
func TestSourceIndexEvictedFamilyReparses(t *testing.T) {
	s, c := testServerWith(t, Config{Workers: 1, CacheCap: 1})
	// The counter fails only at depth 9, so no engine proves it at depth
	// 8: each engine keeps its own NO_CE family and nothing crosses
	// through the proof index.
	req := func(engine string) Request {
		return Request{Format: "verilog", Source: counterSrc, Prop: 0,
			Spec: spec.Spec{Engine: engine, Depth: 8}}
	}
	submitWait(t, c, req(spec.EngineBMC2))
	// Same source and passes, other engine: an index hit on a new family,
	// which evicts the bmc2 family.
	if st := submitWait(t, c, req(spec.EngineBMC3)); st.Cached {
		t.Fatalf("bmc3 answered from a bmc2 family: %+v", st)
	}
	again := submitWait(t, c, req(spec.EngineBMC2))
	if again.Cached || again.Verdict.Kind != "NO_CE" || again.Verdict.Depth != 8 {
		t.Fatalf("evicted family: %+v, want a fresh NO_CE depth 8", again)
	}
	if st := s.CacheStats(); st.SourceHits != 2 || st.Misses != 3 {
		t.Fatalf("want 2 source hits and 3 misses: %+v", st)
	}
}

// Concurrent identical submissions agree, whether they solved, attached
// to the in-flight job or hit the cache.
func TestSourceIndexConcurrentDuplicates(t *testing.T) {
	_, c := testServer(t)
	const clients = 8
	var wg sync.WaitGroup
	got := make([]*JobStatus, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.Submit(counterReq(15), true)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = st
		}(i)
	}
	wg.Wait()
	for i, st := range got {
		if st == nil {
			continue
		}
		if st.State != "done" || st.Verdict.Kind != "CE" || st.Verdict.Depth != 9 || st.Verdict.Witness == nil {
			t.Errorf("client %d: %+v", i, st)
		}
		if st.Key != got[0].Key {
			t.Errorf("client %d key %s, client 0 key %s", i, st.Key, got[0].Key)
		}
	}
}

// A finished job keeps its status but drops its parsed netlist and source
// text.
func TestFinishedJobReleasesNetlist(t *testing.T) {
	s, c := testServer(t)
	for _, req := range []Request{counterReq(15), counterReq(15)} {
		st := submitWait(t, c, req)
		s.mu.Lock()
		j := s.jobs[st.ID]
		s.mu.Unlock()
		got, _ := json.Marshal(j.status())
		want, _ := json.Marshal(st)
		if !bytes.Equal(got, want) {
			t.Fatalf("status changed after finish:\n got  %s\n want %s", got, want)
		}
		j.mu.Lock()
		n, src := j.netlist, j.req.Source
		j.mu.Unlock()
		if n != nil || src != "" {
			t.Fatalf("finished job %s still holds netlist %v, %d source bytes", st.ID, n != nil, len(src))
		}
	}
}
