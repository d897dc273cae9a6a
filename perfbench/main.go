// Command perfbench is the repository benchmark. It drives the engine only
// through the public functions of its packages (planner, engine, sources,
// msgbus, sinks, serve, monitor, fsx) and times each layer from outside.
//
//	perfbench --workload <yahoo-catchup|agg-spill|live-serve> --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 they are the per-layer metrics of
// a traced run, measured alongside an untraced one for the tracing
// overhead. Lines before it carry provenance and sample details.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one named benchmark input and the loop that measures it.
type workload struct {
	why string
	run func(cfg config) (outcome, error)
}

var workloads = map[string]workload{
	"yahoo-catchup": {
		why: "the paper's Fig 6a query drained from a backlog: map-side decode, string filter, join probe, window assignment and partial aggregation dominate",
		run: runYahooCatchup,
	},
	"agg-spill": {
		why: "high-cardinality count over LSM state several times its memtable on the sharded executor: state, shuffle, flush and compaction dominate, plus restarts; checkpoint files are in memory",
		run: runAggSpill,
	},
	"live-serve": {
		why: "open-loop ingest at a fixed rate through 5 ms epochs to SSE clients: per-epoch fixed costs, WAL bookkeeping, sink and serve fan-out dominate; checkpoint files are in memory",
		run: runLiveServe,
	},
}

// config is what every workload receives from the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // where span files go, inside the checkout
}

// outcome is a workload's result: oracle accounting plus metrics.
type outcome struct {
	attempted int64
	failed    int64
	failures  []string // the cause of each kind of failure, for the report
	endToEnd  map[string]float64
	perLayer  map[string]float64
	info      map[string]any
}

func (o *outcome) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += n
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf("%d × ", n)+fmt.Sprintf(format, args...))
	}
}

// Metric units, by name. Every end-to-end and per-layer metric the
// benchmark defines appears here; a run prints all of its kind.
var endToEndUnits = []metricDef{
	{"throughput_rows_per_s", "rows/s"},
	{"latency_p50_ms", "ms"},
	{"setup_s", "s"},
	{"recovery_s", "s"},
	{"live_heap_mb", "MB"},
}

var perLayerUnits = []metricDef{
	{"planner.plan_ms", "ms"},
	{"planner.compile_ms", "ms"},
	{"engine.start_ms", "ms"},
	{"engine.restart_ms", "ms"},
	{"sources.read_calls", "count"},
	{"sources.rows", "count"},
	{"sources.busy_ms", "ms"},
	{"sources.busy_share", "ratio"},
	{"sources.read_ms_p50", "ms"},
	{"sources.backlog_records_max", "count"},
	{"sinks.calls", "count"},
	{"sinks.rows", "count"},
	{"sinks.busy_ms", "ms"},
	{"sinks.column_batch_ratio", "ratio"},
	{"wal.write_ops", "count"},
	{"wal.ops_per_epoch", "count"},
	{"wal.bytes_written", "bytes"},
	{"wal.busy_ms", "ms"},
	{"state.write_ops", "count"},
	{"state.read_ops", "count"},
	{"state.bytes_written", "bytes"},
	{"state.bytes_read", "bytes"},
	{"state.busy_ms", "ms"},
	{"state.sstables", "count"},
	{"state.compactions", "count"},
	{"state.block_cache_hit_ratio", "ratio"},
	{"engine.epochs", "count"},
	{"engine.epoch_ms_p50", "ms"},
	{"engine.epoch_ms_tail", "ms"},
	{"engine.unattributed_ms", "ms"},
	{"engine.alloc_bytes_per_row", "bytes/row"},
	{"engine.gc_pause_ms", "ms"},
	{"serve.frames", "count"},
	{"serve.bytes_received", "bytes"},
	{"serve.deliver_ms_p50", "ms"},
	{"serve.deliver_ms_p99", "ms"},
	{"serve.missing_frames", "count"},
	{"loadgen.records", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.late_ms_max", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	cfg.outDir = os.Getenv("CARGO_TARGET_DIR")
	if cfg.outDir == "" {
		cfg.outDir = ".bench_build"
	}

	prov := provenance(cfg)
	printJSON(map[string]any{"provenance": prov})

	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	out.info["failures"] = out.failures
	printJSON(map[string]any{"details": out.info})

	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	defs, vals := endToEndUnits, out.endToEnd
	if cfg.trace {
		defs, vals = perLayerUnits, out.perLayer
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no result operations were checked")
		return 1
	}
	printJSON(res)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode:", err)
		return
	}
	fmt.Println(string(data))
}

// provenance records what produced a result: machine, toolchain, code
// version and the benchmark's own arguments.
func provenance(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_commit": gitCommit(),
		"why":        workloads[cfg.workload].why,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from a .git directory in the working directory
// without running git; a checkout exported without .git reports unknown.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown (no .git in the working directory)"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if c, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(c))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, r, ok := strings.Cut(line, " "); ok && r == name {
				return hash
			}
		}
	}
	return "unknown (" + name + ")"
}

// ---------------------------------------------------------------- heap

// heapSampler reads the live heap (as marked by the last GC) and the
// allocation total.
type heapSampler struct {
	mu      sync.Mutex
	samples []metrics.Sample
}

func newHeapSampler() *heapSampler {
	return &heapSampler{samples: []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

func (h *heapSampler) read() (live, allocs uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.samples)
	return h.samples[0].Value.Uint64(), h.samples[1].Value.Uint64()
}

// gcPauseTotal is the cumulative stop-the-world pause time.
func gcPauseTotal() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// ---------------------------------------------------------------- helpers

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

// medians reduces per-iteration metric maps to their per-key medians.
func medians(maps []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	if len(maps) == 0 {
		return out
	}
	for k := range maps[0] {
		var xs []float64
		for _, m := range maps {
			if v, ok := m[k]; ok {
				xs = append(xs, v)
			}
		}
		out[k] = median(xs)
	}
	return out
}
