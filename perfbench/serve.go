package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"time"

	"emmver/internal/aig"
	"emmver/internal/btor2"
	"emmver/internal/exp"
	"emmver/internal/pass"
	"emmver/internal/serve"
	"emmver/internal/spec"
	"emmver/internal/verilog"
)

// serve-mix: an in-process job server on a unix socket, fresh per session,
// driven closed-loop by two clients that each wait for every reply, as
// emmv -remote and CI callers do. Each client owns half of the problem
// pool, so its own earlier requests decide every cache outcome it sees:
// which requests hit, miss or warm-start is fixed by the seed even though
// the two clients race for the server's two workers.
//
// The traffic per problem is cmd/emmload's, the repository's serving load
// harness: for each growth problem a first-sight solve at emmload's
// default depth, bursts of hitBurst byte-identical, decoy-salted and
// lazy-spec resubmissions, a resubmission at twice the depth (warm-started
// from the cached frontier) and a lazy one 4 deeper still (warm-started
// again); for each counter-example design a solve and one duplicate. The
// seed interleaves the clients' bursts and picks which earlier request each
// hit resubmits. emmload is itself a synthetic load, so these shares, and
// the ~98% hit ratio they give, are an assumption about real traffic.

const (
	serveClients  = 2
	serveWorkers  = 2
	counterLimits = 8 // counter-example designs in the pool
)

// emmload's defaults: -burst 50, -depth 12, near-duplicates salted with 1
// to 3 decoys.
const (
	hitBurst         = 50
	growthFirstDepth = 12
	decoyVariants    = 3
)

// growthShapes are the pool's shared-address growth designs (AW, DW),
// submitted as BTOR2.
var growthShapes = [][2]int{{3, 4}, {3, 6}, {3, 8}, {4, 4}, {4, 6}, {4, 8}, {5, 4}, {5, 6}, {5, 8}, {4, 10}, {3, 10}, {5, 10}}

// counterSrc is a Verilog design whose assertion fails exactly when the
// counter reaches limit, so its counter-example is limit cycles long.
func counterSrc(limit int) string {
	return fmt.Sprintf(`
module counter(input clk, input en);
  reg [4:0] cnt;
  always @(posedge clk) if (en) cnt <= cnt + 5'd1;
  assert(cnt != 5'd%d, "never_limit");
endmodule`, limit)
}

// problem is one pool entry.
type problem struct {
	growth bool
	aw, dw int
	limit  int
	// sources[d] is the BTOR2 text salted with d decoy bits (growth), or
	// the Verilog text in sources[0] (counter).
	sources []string
	netlist *aig.Netlist // parsed source, for witness replay
}

// pool builds every problem's sources. It is the solver-independent part
// of a session's set-up.
func buildPool() ([]*problem, error) {
	var pool []*problem
	for _, s := range growthShapes {
		p := &problem{growth: true, aw: s[0], dw: s[1]}
		for d := 0; d <= decoyVariants; d++ {
			cfg := exp.DefaultGrowthSolve()
			cfg.AW, cfg.DW, cfg.Decoys = s[0], s[1], d
			var buf bytes.Buffer
			if err := btor2.Write(&buf, exp.GrowthSolveNetlist(cfg)); err != nil {
				return nil, err
			}
			p.sources = append(p.sources, buf.String())
		}
		pool = append(pool, p)
	}
	for i := 0; i < counterLimits; i++ {
		p := &problem{limit: 4 + 2*i}
		p.sources = []string{counterSrc(p.limit)}
		n, err := verilog.ElaborateString(p.sources[0], "counter")
		if err != nil {
			return nil, err
		}
		p.netlist = n
		pool = append(pool, p)
	}
	return pool, nil
}

// streamReq is one request of a client's stream and what its reply must
// be.
type streamReq struct {
	kind       string
	prob       *problem
	req        serve.Request
	wantCached bool
	wantWarm   int
}

// buildStreams draws each client's request stream from the seed.
func buildStreams(pool []*problem, seed int64) [][]streamReq {
	rng := rand.New(rand.NewSource(seed))
	streams := make([][]streamReq, serveClients)
	for c := range streams {
		var owned []*problem
		for i, p := range pool {
			if i%serveClients == c {
				owned = append(owned, p)
			}
		}
		rng.Shuffle(len(owned), func(i, j int) { owned[i], owned[j] = owned[j], owned[i] })
		streams[c] = buildStream(rng, owned)
	}
	return streams
}

func buildStream(rng *rand.Rand, owned []*problem) []streamReq {
	type item struct {
		kind string
		p    *problem
	}
	var rest []item
	for _, p := range owned {
		if !p.growth {
			rest = append(rest, item{"dup", p})
			continue
		}
		for i := 0; i < hitBurst; i++ {
			rest = append(rest, item{"dup", p}, item{"near", p}, item{"lazy", p})
		}
		rest = append(rest, item{"deeper", p}, item{"deeper", p})
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })

	// First sights open the stream, so every later request chooses among
	// all the client's problems.
	var out []streamReq
	byProb := map[*problem][]streamReq{}
	emit := func(r streamReq) {
		out = append(out, r)
		byProb[r.prob] = append(byProb[r.prob], r)
	}
	frontier := map[*problem]int{} // deepest bound submitted per problem
	deeper := map[*problem]int{}   // deeper resubmissions sent per problem
	for _, p := range owned {
		depth := growthFirstDepth
		if !p.growth {
			depth = p.limit + 4
		}
		emit(streamReq{kind: "first", prob: p, req: request(p, 0, depth)})
		frontier[p] = depth
	}
	for _, it := range rest {
		p := it.p
		switch it.kind {
		case "deeper":
			// emmload's warm phase doubles the depth; its lazy tail goes 4
			// deeper under lazy EMM.
			r := streamReq{kind: it.kind, prob: p, wantWarm: frontier[p] + 1,
				req: request(p, 0, 2*growthFirstDepth)}
			if deeper[p] > 0 {
				r.req = request(p, 0, 2*growthFirstDepth+4)
				r.req.Spec.Lazy = true
			}
			deeper[p]++
			emit(r)
			frontier[p] = r.req.Spec.Depth
		case "near":
			prev := byProb[p][rng.Intn(len(byProb[p]))]
			emit(streamReq{kind: it.kind, prob: p, wantCached: true,
				req: request(p, 1+rng.Intn(decoyVariants), prev.req.Spec.Depth)})
		default: // dup, lazy
			r := byProb[p][rng.Intn(len(byProb[p]))]
			r.kind, r.wantCached, r.wantWarm = it.kind, true, 0
			if it.kind == "lazy" {
				r.req.Spec.Lazy = true
			}
			emit(r)
		}
	}
	return out
}

func request(p *problem, decoys, depth int) serve.Request {
	if p.growth {
		return serve.Request{Format: "btor2", Source: p.sources[decoys],
			Spec: spec.Spec{Engine: spec.EngineBMC2, Depth: depth}}
	}
	// emmload submits its counter-example design to BMC-3.
	return serve.Request{Format: "verilog", Source: p.sources[0], Top: "counter",
		Spec: spec.Spec{Engine: spec.EngineBMC3, Depth: depth}}
}

// reply is what a client saw for one request.
type reply struct {
	r       streamReq
	st      *serve.JobStatus
	err     error
	latency time.Duration
}

// session is one fresh server driven through both clients' streams.
type session struct {
	dir     string // where the sockets go
	seq     int
	streams [][]streamReq
}

// serveResult is one session's outcome.
type serveResult struct {
	setup   time.Duration
	wall    time.Duration
	allocMB float64
	replies [][]reply
}

// run starts a server, runs the streams, and shuts the server down
// again; tr (nil when untraced) records the clients' frontend probe.
func (s *session) run(tr *tracer) (serveResult, error) {
	var res serveResult
	sock := filepath.Join(s.dir, fmt.Sprintf("serve-%d-%d.sock", os.Getpid(), s.seq))
	s.seq++
	t0 := time.Now()
	l, err := net.Listen("unix", sock)
	if err != nil {
		return res, err
	}
	srv := serve.New(serve.Config{Workers: serveWorkers})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	cl := serve.NewClient("unix:" + sock)
	if err := cl.Healthy(10 * time.Second); err != nil {
		srv.Shutdown()
		<-served
		return res, err
	}
	res.setup = time.Since(t0)

	res.replies = make([][]reply, len(s.streams))
	res.wall, res.allocMB = measured(func() {
		var wg sync.WaitGroup
		for c := range s.streams {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				res.replies[c] = drive(cl, s.streams[c], tr)
			}(c)
		}
		wg.Wait()
	})
	srv.Shutdown()
	err = <-served
	os.Remove(sock)
	return res, err
}

// drive sends one client's stream, waiting for each reply.
func drive(cl *serve.Client, stream []streamReq, tr *tracer) []reply {
	var fe *frontend
	var span int
	if tr != nil {
		fe = &frontend{tr: tr, cache: serve.NewCache(0)}
		span = tr.begin("client", tr.root)
		defer tr.end(span)
	}
	out := make([]reply, 0, len(stream))
	for _, r := range stream {
		var key *frontKey
		if fe != nil {
			key = fe.probe(span, r.req)
		}
		var rs int
		if tr != nil {
			rs = tr.begin("request", span)
		}
		t0 := time.Now()
		st, err := cl.Submit(r.req, true)
		lat := time.Since(t0)
		if tr != nil {
			tr.end(rs)
		}
		if fe != nil && key != nil && err == nil && st.Verdict != nil && !st.Cached {
			v := *st.Verdict
			v.SourceKey = key.source
			fe.cache.Store(key.family, key.problem, &v)
		}
		out = append(out, reply{r: r, st: st, err: err, latency: lat})
	}
	return out
}

// frontend replays the server's submit path from outside on a
// benchmark-owned cache: parse, compile, structural key, lookup.
type frontend struct {
	tr    *tracer
	cache *serve.Cache
}

type frontKey struct{ family, problem, source string }

func (f *frontend) probe(parent int, req serve.Request) *frontKey {
	var n *aig.Netlist
	var err error
	f.tr.do("serve.parse", parent, func() {
		if req.Format == "btor2" {
			n, err = btor2.Read(strings.NewReader(req.Source))
		} else {
			n, err = verilog.ElaborateString(req.Source, req.Top)
		}
	})
	if err != nil {
		f.tr.note([]string{"frontend parse: " + err.Error()})
		return nil
	}
	canon := req.Spec.Canonical()
	var c *pass.Compiled
	f.tr.do("pass.compile", parent, func() { c, err = pass.Compile(n, []int{req.Prop}, pass.Options{Spec: canon.Passes}) })
	if err != nil {
		f.tr.note([]string{"frontend compile: " + err.Error()})
		return nil
	}
	f.tr.add("pass.nodes_after", float64(c.N.NumNodes()))
	k := &frontKey{source: serve.SourceKey(req.Format, req.Top, req.Prop, []byte(req.Source))}
	f.tr.do("serve.key", parent, func() {
		nk := serve.NetlistKey(c.N, c.Props)
		k.family, k.problem = serve.FamilyID(nk, req.Spec), serve.ProblemID(nk, req.Spec)
	})
	f.tr.do("serve.lookup", parent, func() { f.cache.Lookup(k.family, k.problem, canon.Depth, k.source) })
	return k
}

// checkReply validates one reply: done, with the expected verdict, cache
// outcome and warm start; a witness that replays on the source netlist
// and, when cached, equals the one its problem's solve returned (solved
// maps each problem to that first verdict).
func checkReply(rp reply, solved map[*problem]*serve.Verdict) []string {
	var p []string
	r := rp.r
	if rp.err != nil {
		return []string{rp.err.Error()}
	}
	st := rp.st
	if st.State != "done" || st.Verdict == nil {
		return []string{fmt.Sprintf("state %s error %q", st.State, st.Error)}
	}
	v := st.Verdict
	p = expect(p, r.kind+" cached", st.Cached, r.wantCached)
	p = expect(p, r.kind+" warm start", st.WarmStart, r.wantWarm)
	if r.prob.growth {
		p = expect(p, "verdict", v.Kind, "NO_CE")
		return expect(p, "depth", v.Depth, r.req.Spec.Depth)
	}
	p = expect(p, "verdict", v.Kind, "CE")
	p = expect(p, "depth", v.Depth, r.prob.limit)
	if v.Witness == nil {
		return append(p, "CE without witness")
	}
	if err := v.Witness.Replay(r.prob.netlist, 0); err != nil {
		p = append(p, fmt.Sprintf("replay: %v", err))
	}
	if first, ok := solved[r.prob]; !ok {
		solved[r.prob] = v
	} else if !reflect.DeepEqual(first.Witness, v.Witness) {
		p = append(p, "cached witness differs from the solved one")
	}
	return p
}

// newSession builds the pool and the seeded request streams.
func newSession(seed int64) (*session, error) {
	dir := filepath.Join(buildDir(), "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	pool, err := buildPool()
	if err != nil {
		return nil, err
	}
	return &session{dir: dir, streams: buildStreams(pool, seed)}, nil
}

// serveRun drives sessions until the budget is spent, at least four of
// them, checking each after it ends. A session sends 1852 requests, so
// more than ten lie beyond p99 in every run. With a tracer it alternates untraced and
// traced sessions, the traced ones recording the clients' frontend probe.
func serveRun(cfg runConfig, tr *tracer, o *outcome, each func(r serveResult, traced bool)) {
	var sess *session
	var err error
	_, poolSetup := repeatSetup(func() bool {
		sess, err = newSession(cfg.seed)
		return err == nil
	})
	if err != nil {
		o.fail("set-up", []string{err.Error()})
		return
	}
	var slowest time.Duration
	start := time.Now()
	for n := 0; keepGoing(start, cfg.budget, n, 4, slowest); n++ {
		traced := tr != nil && n%2 == 1
		var res serveResult
		if traced {
			tr.beginInstance("session")
			res, err = sess.run(tr)
			tr.endInstance()
			if len(tr.problems) > 0 {
				o.fail(fmt.Sprintf("session %d probe", n+1), tr.problems)
			}
		} else {
			res, err = sess.run(nil)
		}
		if err != nil && !errors.Is(err, net.ErrClosed) {
			o.fail(fmt.Sprintf("session %d server", n+1), []string{err.Error()})
		}
		res.setup += time.Duration(poolSetup * float64(time.Second))
		slowest = max(slowest, res.setup+res.wall)
		for c, rs := range res.replies {
			solved := map[*problem]*serve.Verdict{}
			for i, rp := range rs {
				o.fail(fmt.Sprintf("session %d client %d request %d", n+1, c, i), checkReply(rp, solved))
			}
		}
		each(res, traced)
	}
}

func plainServe(cfg runConfig) outcome {
	var o outcome
	var setups, walls, allocs, lats []float64
	requests := 0
	serveRun(cfg, nil, &o, func(r serveResult, _ bool) {
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
		allocs = append(allocs, r.allocMB)
		for _, rs := range r.replies {
			for _, rp := range rs {
				lats = append(lats, ms(rp.latency))
				requests++
			}
		}
	})
	o.set("setup_s", "s", median(setups))
	o.set("check_s", "s", median(walls))
	o.set("alloc_mb", "MB", median(allocs))
	o.set("req_p50_ms", "ms", median(lats))
	o.set("req_p99_ms", "ms", quantile(lats, 0.99))
	o.set("jobs_per_s", "1/s", float64(requests)/sum(walls))
	return o
}

func tracedServe(cfg runConfig) outcome {
	var o outcome
	tr := newTracer()
	var plain, walls, hits, solveMS, waitMS, warm, rejected []float64
	requests := 0
	serveRun(cfg, tr, &o, func(r serveResult, traced bool) {
		if !traced {
			plain = append(plain, ms(r.wall))
			return
		}
		walls = append(walls, ms(r.wall))
		var n, h, w, rej float64
		var solve, wait []float64
		for _, rs := range r.replies {
			for _, rp := range rs {
				n++
				if rp.err != nil {
					if strings.Contains(rp.err.Error(), "503") {
						rej++
					}
					continue
				}
				if rp.st.Cached {
					h++
				}
				if rp.st.WarmStart > 0 {
					w++
				}
				if !rp.st.Cached && rp.st.Verdict != nil {
					solve = append(solve, float64(rp.st.Verdict.ElapsedMS))
					wait = append(wait, ms(rp.latency)-float64(rp.st.Verdict.ElapsedMS))
				}
			}
		}
		requests = int(n)
		hits = append(hits, h/n)
		solveMS = append(solveMS, median(solve))
		waitMS = append(waitMS, median(wait))
		warm = append(warm, w)
		rejected = append(rejected, rej)
	})
	tr.report(&o)
	// The frontend probe's times and sizes are per session; report them
	// per request.
	for _, k := range []string{"serve.parse_ms", "serve.key_ms", "serve.lookup_us", "pass.ms", "pass.nodes_after"} {
		m := o.metrics[k]
		o.set(k, m.Unit, m.Value/float64(max(requests, 1)))
	}
	o.set("serve.hit_ratio", "ratio", median(hits))
	o.set("serve.solve_ms", "ms", median(solveMS))
	o.set("serve.wait_ms", "ms", median(waitMS))
	o.set("serve.warm_starts", "count", median(warm))
	o.set("serve.rejected", "count", median(rejected))
	o.set("trace.total_ms", "ms", median(walls))
	o.set("trace.overhead_ms", "ms", median(walls)-median(plain))
	if err := tr.write(cfg.traceTo); err != nil {
		o.fail("trace file", []string{err.Error()})
	}
	return o
}
