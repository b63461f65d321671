// Command perfbench is the repository benchmark: it runs one named
// workload for a fixed wall-clock budget, checks every verdict it gets
// back, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer split) as one JSON object on the last line of standard output.
//
//	perfbench -workload growth-eager -seed 1 -seconds 20 -trace 0
//
// Workloads and metrics are described in README.md next to this file.
// End-to-end runs call the emmver facade (or serve.Client for serve-mix)
// and nothing else. The traced run makes the same calls with a
// benchmark-owned trace sink in Options.Obs, and times from outside only
// what the engine's own spans do not cover (witness replay, serve-mix's
// frontend), so the program under test carries no benchmark
// instrumentation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload runner receives.
type runConfig struct {
	seed    int64
	budget  time.Duration
	traceTo string // file the traced run writes its spans to
}

// outcome is a workload runner's result: the metrics plus the correctness
// tally. failures holds one line per wrong verdict, failed replay or error.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// covers reports an error unless the metrics are exactly want, with its
// units: a runner that forgot a metric or misnamed one is a benchmark bug.
func (o *outcome) covers(want []layerMetric) error {
	if len(o.metrics) != len(want) {
		return fmt.Errorf("%d metrics reported, want %d", len(o.metrics), len(want))
	}
	for _, m := range want {
		if got, ok := o.metrics[m.name]; !ok || got.Unit != m.unit {
			return fmt.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
		}
	}
	return nil
}

// fail records the problems found in one attempted unit of work.
func (o *outcome) fail(unit string, problems []string) {
	o.attempted++
	if len(problems) == 0 {
		return
	}
	o.failed++
	for _, p := range problems {
		o.failures = append(o.failures, unit+": "+p)
	}
}

// endToEnd is every metric an untraced run reports, in BENCHMARK.json
// order; perLayer (trace.go) is the traced run's.
var endToEnd = []layerMetric{
	{"setup_s", "s"}, {"check_s", "s"}, {"alloc_mb", "MB"},
	{"req_p50_ms", "ms"}, {"req_p99_ms", "ms"}, {"jobs_per_s", "1/s"},
}

// runners maps each workload name to its end-to-end and traced runners.
var runners = map[string]struct {
	plain  func(runConfig) outcome
	traced func(runConfig) outcome
}{
	"qsort-proof":  {plainSolver(newQsort), tracedSolver(newQsort, true)},
	"filter-many":  {plainSolver(newFilter), tracedSolver(newFilter, true)},
	"growth-eager": {plainSolver(newGrowth(false)), tracedSolver(newGrowth(false), true)},
	"growth-lazy":  {plainSolver(newGrowth(true)), tracedSolver(newGrowth(true), false)},
	"serve-mix":    {plainServe, tracedServe},
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed (property order, request stream)")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()

	r, ok := runners[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1, -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second}
	run := r.plain
	if *trace == 1 {
		run = r.traced
		dir := filepath.Join(buildDir(), "perfbench")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		cfg.traceTo = filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
	}
	out := run(cfg)
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	if err := out.covers(want); err != nil && out.attempted > 0 {
		out.fail("report", []string{err.Error()})
	}

	keys := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := out.metrics[k]
		fmt.Printf("%-28s %14.4f %s\n", k, m.Value, m.Unit)
	}
	fmt.Printf("fail_ratio %d/%d\n", out.failed, out.attempted)
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "MISMATCH", f)
	}
	rep := report{Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted,
		Failed: out.failed, Metrics: out.metrics}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for k := range runners {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// buildDir is where build outputs and traces go: $CARGO_TARGET_DIR when
// set (the runner script builds there too), else .bench_build.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// allocBytes reads the cumulative heap allocation counter. Allocated bytes
// repeat run to run within ~0.1%, while a heap high-water mark sampled at
// the end of a run (bmc.Stats.PeakHeapMB) depends on where the collector
// happened to be and varied by a factor of two between identical runs.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// measured runs f with the heap collected first, returning its wall-clock
// time and the megabytes it allocated.
func measured(f func()) (time.Duration, float64) {
	runtime.GC()
	a0 := allocBytes()
	t0 := time.Now()
	f()
	dt := time.Since(t0)
	return dt, float64(allocBytes()-a0) / 1e6
}

// repeatSetup runs build several times and returns the last result with
// the median build time: enough repetitions to fill a second, 5 to 100000
// of them. A single build takes microseconds to milliseconds, so a shorter
// window lets a momentary stall of the host move the median.
func repeatSetup[T any](build func() T) (T, float64) {
	var (
		v     T
		times []float64
		spent time.Duration
	)
	runtime.GC()
	for len(times) < 5 || (spent < time.Second && len(times) < 100000) {
		t0 := time.Now()
		v = build()
		dt := time.Since(t0)
		spent += dt
		times = append(times, dt.Seconds())
	}
	return v, median(times)
}

// keepGoing reports whether another unit of work fits the budget: at
// least min units always run, and a unit is not started when the slowest
// one so far would overrun.
func keepGoing(start time.Time, budget time.Duration, done, min int, slowest time.Duration) bool {
	if done < min {
		return true
	}
	return time.Since(start)+slowest <= budget
}

func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
