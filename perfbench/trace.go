package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"emmver"
)

// span is one timed call: either a span the engine emitted through
// Options.Obs, or one the benchmark recorded around a call of its own
// (a witness replay, a step of serve-mix's frontend probe). Spans of one
// workload instance share Instance; Parent is the enclosing span's ID (0
// for an instance root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Instance int    `json:"instance"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// layerMetric names a per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// perLayer is every metric a traced run reports, in BENCHMARK.json order.
// A workload that does not exercise a layer reports 0 for it.
var perLayer = []layerMetric{
	{"pass.ms", "ms"}, {"pass.nodes_after", "count"},
	{"unroll.ms", "ms"}, {"unroll.clauses", "count"}, {"unroll.strash_hits", "count"},
	{"emm.ms", "ms"}, {"emm.clauses", "count"}, {"emm.init_clauses", "count"}, {"emm.memo_hits", "count"},
	{"sat.ce_ms", "ms"}, {"sat.forward_ms", "ms"}, {"sat.backward_ms", "ms"},
	{"sat.solves", "count"}, {"sat.conflicts", "count"}, {"sat.propagations", "count"},
	{"simplify.ms", "ms"}, {"simplify.passes", "count"}, {"simplify.eliminated_vars", "count"},
	{"lazy.rounds", "count"}, {"lazy.spurious_ratio", "ratio"}, {"lazy.emm_clause_ratio", "ratio"},
	{"pba.abstract_ms", "ms"}, {"pba.prove_ms", "ms"}, {"pba.latches_kept_ratio", "ratio"},
	{"sim.replay_ms", "ms"}, {"sim.replays", "count"},
	{"bmc.self_ms", "ms"},
	{"serve.parse_ms", "ms"}, {"serve.key_ms", "ms"}, {"serve.lookup_us", "us"},
	{"serve.hit_ratio", "ratio"}, {"serve.solve_ms", "ms"}, {"serve.wait_ms", "ms"},
	{"serve.warm_starts", "count"}, {"serve.rejected", "count"},
	{"trace.conflicts", "count"}, {"trace.emm_depths_differing", "count"},
	{"trace.total_ms", "ms"}, {"trace.overhead_ms", "ms"},
}

// selfTimeOf maps a span name to the metric its self time adds to. The
// engine's spans are pass.compile (and one pass.<name> per pass),
// emm.generate, solve.ce/forward/backward, bmc.simplify and bmc.depth;
// bmc.depth's self time is the depth's unrolling plus the per-depth work
// outside the other spans (witness decoding, the engine's own replay of
// each counter-example, PBA core tracking). Spans not listed (the instance
// root, the PBA phases) are engine bookkeeping and count as bmc.self_ms;
// "" means the span is not a layer at all (the serve-mix client loop,
// whose self time is waiting on the server).
var selfTimeOf = map[string]string{
	"pass.compile":   "pass.ms",
	"emm.generate":   "emm.ms",
	"solve.ce":       "sat.ce_ms",
	"solve.forward":  "sat.forward_ms",
	"solve.backward": "sat.backward_ms",
	"bmc.simplify":   "simplify.ms",
	"bmc.depth":      "unroll.ms",
	"sim.replay":     "sim.replay_ms",
	"serve.parse":    "serve.parse_ms",
	"serve.key":      "serve.key_ms",
	"serve.lookup":   "serve.lookup_us",
	"replays":        "",
	"session":        "",
	"client":         "",
	"request":        "",
}

// totalTimeOf maps the PBA phase spans to metrics of their whole
// duration: phase time is the figure Table 2 reports.
var totalTimeOf = map[string]string{
	"pba.phase.abstract": "pba.abstract_ms",
	"pba.phase.prove":    "pba.prove_ms",
}

// metricOf is the metric a span's self time adds to.
func metricOf(name string) string {
	if m, ok := selfTimeOf[name]; ok {
		return m
	}
	if strings.HasPrefix(name, "pass.") {
		return "pass.ms"
	}
	return "bmc.self_ms"
}

// tracer keeps spans in memory and sums them per instance. It is an
// obs.Sink, so a traced solver instance hands it to the engine through
// Options.Obs and it records the engine's own spans; the benchmark adds
// spans of its own with do. It is safe for concurrent use (serve-mix
// traces two clients at once).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	inst  int
	first int // index of the current instance's first span
	root  int
	// open maps the engine's span IDs to ours; stack holds the open
	// engine spans, innermost last (the traced solver runs are
	// sequential, so engine spans nest).
	open  map[uint64]int
	stack []int
	cur   map[string]float64
	// perInst holds each finished instance's metric sums.
	perInst []map[string]float64
	// problems collects what the frontend probe found wrong in the
	// current instance.
	problems []string
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: make(map[uint64]int)} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// observer wraps the tracer for Options.Obs, with a fresh metrics
// registry for the instance's build counts.
func (t *tracer) observer() *emmver.Observer {
	return emmver.NewObserver(emmver.NewRegistry(), t)
}

// Emit records an engine span: its parent is the innermost open engine
// span, or the instance root.
func (t *tracer) Emit(ev emmver.TraceEvent) {
	stamp := ev.T.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Ev {
	case "start":
		name := ev.Name
		if name == "pba.phase" {
			name += "." + fmt.Sprint(field(ev, "phase"))
		}
		parent := t.root
		if len(t.stack) > 0 {
			parent = t.stack[len(t.stack)-1]
		}
		id := len(t.spans) + 1
		t.spans = append(t.spans, span{ID: id, Parent: parent, Instance: t.inst, Name: name, StartNS: stamp})
		t.open[ev.Span] = id
		t.stack = append(t.stack, id)
	case "end":
		id, ok := t.open[ev.Span]
		if !ok {
			return
		}
		delete(t.open, ev.Span)
		t.spans[id-1].EndNS = stamp
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i] == id {
				t.stack = append(t.stack[:i], t.stack[i+1:]...)
				break
			}
		}
		if ev.Name == "pass.compile" {
			if n, ok := field(ev, "nodes").(int); ok {
				t.cur["pass.nodes_after"] += float64(n)
			}
		}
	}
}

// field returns the named field of an event, nil when absent.
func field(ev emmver.TraceEvent, k string) any {
	for _, kv := range ev.Fields {
		if kv.K == k {
			return kv.V
		}
	}
	return nil
}

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Instance: t.inst, Name: name, StartNS: start})
	return id
}

func (t *tracer) end(id int) {
	stop := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNS = stop
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func()) {
	id := t.begin(name, parent)
	f()
	t.end(id)
}

// add accumulates a count into the current instance.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.cur[name] += v
	t.mu.Unlock()
}

// note records frontend-probe problems against the current instance.
func (t *tracer) note(problems []string) {
	t.mu.Lock()
	t.problems = append(t.problems, problems...)
	t.mu.Unlock()
}

// beginInstance starts a new instance under a root span of the given
// name: "instance" for a solver workload, whose root self time is
// engine bookkeeping, "session" for serve-mix, whose two clients overlap
// under it.
func (t *tracer) beginInstance(root string) {
	t.mu.Lock()
	t.inst++
	t.first = len(t.spans)
	t.cur = make(map[string]float64)
	t.problems = nil
	t.open = make(map[uint64]int)
	t.stack = t.stack[:0]
	t.mu.Unlock()
	t.root = t.begin(root, 0)
}

// replayer returns a witness replay timed as sim.replay under a "replays"
// root of the current instance, opened on first use.
func (t *tracer) replayer() replayFunc {
	parent := 0
	return func(w *emmver.Witness, n *emmver.Netlist, prop int) error {
		if parent == 0 {
			parent = t.begin("replays", 0)
		}
		id := t.begin("sim.replay", parent)
		err := w.Replay(n, prop)
		t.end(id)
		t.add("sim.replays", 1)
		return err
	}
}

// endInstance closes every root span still open and folds the instance's
// spans into per-metric sums: each span's self time (its duration minus
// the time its children cover) goes to its layer.
func (t *tracer) endInstance() {
	stop := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans[t.first:]
	child := make(map[int]int64, len(spans))
	for i := range spans {
		if spans[i].EndNS == 0 {
			spans[i].EndNS = stop
		}
		if s := spans[i]; s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for _, s := range spans {
		dur := s.EndNS - s.StartNS
		if m, ok := totalTimeOf[s.Name]; ok {
			t.cur[m] += float64(dur) / 1e6
		}
		if m := metricOf(s.Name); m != "" {
			t.cur[m] += float64(dur-child[s.ID]) / unitNS(m)
		}
	}
	t.perInst = append(t.perInst, t.cur)
}

// rootMS is the duration of the current instance's root span.
func (t *tracer) rootMS() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[t.root-1]
	return float64(s.EndNS-s.StartNS) / 1e6
}

// report sets each traced metric to its median over instances; counters
// set by the caller before are kept.
func (t *tracer) report(o *outcome) {
	units := make(map[string]string, len(perLayer))
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	seen := make(map[string]bool)
	for _, inst := range t.perInst {
		for k := range inst {
			seen[k] = true
		}
	}
	for k := range seen {
		var xs []float64
		for _, inst := range t.perInst {
			xs = append(xs, inst[k])
		}
		if unit, ok := units[k]; ok {
			o.set(k, unit, median(xs))
		}
	}
	for _, m := range perLayer {
		if _, ok := o.metrics[m.name]; !ok {
			o.set(m.name, m.unit, 0)
		}
	}
}

// unitNS is the number of nanoseconds in a time metric's unit.
func unitNS(metric string) float64 {
	if strings.HasSuffix(metric, "_us") {
		return 1e3
	}
	return 1e6
}

// write stores every span as JSON, once the run has ended.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
