// Command perfbench is the repository benchmark. It runs one seeded
// workload against the public pdwqo API (tpch-adhoc, largejoin-plan) or
// the in-process query server (tpch-serve), checks every result, and
// prints the metrics as one JSON object on the last line of standard
// output.
//
// With -trace 0 it reports the end-to-end metrics of an untraced run.
// With -trace 1 it drives the pipeline layer by layer through each
// layer's public entry point, times every call as a span, and reports
// the per-layer metrics. The program under test is not instrumented:
// the spans are recorded by this package around the calls it makes.
//
//	bash perfbench/run.sh --workload tpch-adhoc --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"tpch-adhoc":     runAdhoc,
	"tpch-serve":     runServe,
	"largejoin-plan": runLargeJoin,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: tpch-adhoc, tpch-serve or largejoin-plan")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 15, "minimum length of the measured window in seconds")
		traced   = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 reports per-layer metrics")
		root     = flag.String("root", ".", "checkout root; results are written under <root>/.bench_build")
		commit   = flag.String("commit", "none", "source revision, recorded in the host facts")
		source   = flag.String("source", "", "digest of the built sources, recorded in the host facts")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload {tpch-adhoc|tpch-serve|largejoin-plan}, -seconds >= 1, -trace {0|1}; got %q, %d, %d\n",
			*workload, *seconds, *traced)
		return 2
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traced == 1,
		metrics:  map[string]metric{},
		spans:    &recorder{},
		facts: map[string]any{
			"workload":   *workload,
			"seed":       *seed,
			"seconds":    *seconds,
			"trace":      *traced,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"commit":     *commit,
			"source":     *source,
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
		},
	}
	if b.trace {
		// An idle layer reports zero; each workload overwrites the layers
		// it drives.
		for _, m := range perLayerMetrics {
			b.set(m.name, 0, m.unit)
		}
	}
	if err := drive(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if b.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no query was attempted\n", *workload)
		return 1
	}
	if err := b.checkMetricNames(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := b.writeOutputs(filepath.Join(*root, ".bench_build", "results")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	host, _ := json.Marshal(map[string]any{"host": b.facts})
	fmt.Println(string(host))
	correct := b.failed == 0
	line, err := json.Marshal(result{Correct: correct, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// endToEndMetrics are reported by untraced runs, perLayerMetrics by
// traced runs; BENCHMARK.json declares the same names and units.
var endToEndMetrics = []string{
	"setup_s", "throughput_qps", "latency_geomean_ms", "latency_p90_ms", "latency_p95_ms",
	"success_ratio", "cpu_ms_per_query", "alloc_mb_per_query", "peak_heap_mb", "plan_cost_geomean",
}

var perLayerMetrics = []struct{ name, unit string }{
	{"sqlparser.parse_ms", "ms"},
	{"algebra.bind_ms", "ms"},
	{"normalize.normalize_ms", "ms"},
	{"normalize.greedy_order_ms", "ms"},
	{"memo.optimize_ms", "ms"},
	{"memo.groups", "count"},
	{"memo.exprs", "count"},
	{"memoxml.encode_ms", "ms"},
	{"memoxml.decode_ms", "ms"},
	{"memoxml.bytes", "bytes"},
	{"memoxml.share_pct", "%"},
	{"core.optimize_ms", "ms"},
	{"core.options_considered", "count"},
	{"core.options_retained", "count"},
	{"core.fallback_ratio", "ratio"},
	{"core.wasted_lowering_ms", "ms"},
	{"dsql.generate_ms", "ms"},
	{"dsql.steps", "count"},
	{"planverify.check_ms", "ms"},
	{"transval.check_ms", "ms"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.compiles", "count"},
	{"plancache.lookup_ms", "ms"},
	{"plancache.warm_s", "s"},
	{"engine.execute_ms", "ms"},
	{"engine.move_step_ms", "ms"},
	{"engine.return_step_ms", "ms"},
	{"engine.dms_mb", "MB"},
	{"engine.max_node_skew", "ratio"},
	{"exec.local_rows", "count"},
	{"exec.local_batches", "count"},
	{"server.queue_wait_ms", "ms"},
	{"server.stream_ms", "ms"},
	{"server.wire_ms", "ms"},
	{"server.shed", "count"},
	{"tpch.generate_s", "s"},
	{"qgen.generate_s", "s"},
	{"pdwqo.open_s", "s"},
	{"go.gc_cycles_per_query", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"determinism.mismatches", "count"},
}

// checkMetricNames asserts the run reports exactly its mode's metrics.
func (b *bench) checkMetricNames() error {
	var want []string
	if b.trace {
		for _, m := range perLayerMetrics {
			want = append(want, m.name)
		}
	} else {
		want = endToEndMetrics
	}
	if len(b.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(b.metrics), len(want))
	}
	for _, name := range want {
		if _, ok := b.metrics[name]; !ok {
			return fmt.Errorf("metric %s not reported", name)
		}
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's configuration and accumulated outcome.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	attempted, failed int
	metrics           map[string]metric
	spans             *recorder
	facts             map[string]any
}

// set records a metric. A value that is not a finite number is a
// benchmark bug, reported as such rather than encoded.
func (b *bench) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("perfbench: metric %s is %v", name, v))
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// maxFailureLines bounds how many failure messages reach stderr.
const maxFailureLines = 20

// fail counts one failed query and prints its reason.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if b.failed <= maxFailureLines {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
	}
}

// writeOutputs writes the host facts, metrics and (for traced runs) the
// spans of this run to one JSON file.
func (b *bench) writeOutputs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create results directory: %w", err)
	}
	trace := 0
	if b.trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", b.workload, b.seed, trace))
	doc := map[string]any{
		"host":      b.facts,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   b.metrics,
		"spans":     b.spans.spans,
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

// endToEnd records the end-to-end metrics shared by every workload.
// setups are the repeated set-up times, lat the per-query latencies of
// the measured window, costs the plan cost of each distinct query.
func (b *bench) endToEnd(setups []float64, lat []time.Duration, ws windowStats, costs map[string]float64) {
	b.set("setup_s", median(setups), "s")
	ok := b.attempted - b.failed
	b.set("throughput_qps", float64(ok)/ws.elapsed.Seconds(), "q/s")
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	b.set("latency_geomean_ms", geomean(ms), "ms")
	b.set("latency_p90_ms", percentile(ms, 0.90), "ms")
	b.set("latency_p95_ms", percentile(ms, 0.95), "ms")
	b.set("success_ratio", float64(ok)/float64(b.attempted), "ratio")
	b.set("cpu_ms_per_query", millis(ws.cpu)/float64(b.attempted), "ms")
	b.set("alloc_mb_per_query", float64(ws.allocBytes)/1e6/float64(b.attempted), "MB")
	b.set("peak_heap_mb", float64(ws.peakHeap)/1e6, "MB")
	b.set("plan_cost_geomean", costGeomean(costs), "dms_cost")
	b.facts["samples"] = len(lat)
	b.facts["window_s"] = ws.elapsed.Seconds()
	b.facts["latencies_ms"] = ms
}

// runtimeLayer records the Go runtime's per-query GC figures.
func (b *bench) runtimeLayer(ws windowStats, queries int) {
	b.set("go.gc_cycles_per_query", float64(ws.gcCycles)/float64(queries), "count")
	b.set("go.gc_pause_ms", float64(ws.gcPause)/float64(time.Millisecond)/float64(queries), "ms")
}
