package experiments

import (
	"fmt"
	"runtime"
	"time"

	"structream/internal/cluster"
	"structream/internal/engine"
	"structream/internal/fsx"
	"structream/internal/incremental"
	"structream/internal/shard"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
	"structream/internal/sql/vec"
)

// The scaling dimension of the bench suite: the partitioned runtime
// (engine.Options.Workers) at 1/2/4/8 workers over three workloads —
// the stateless map query, a keyed count through the per-partition
// state commits, and a fetch-latency-bound variant where the source
// charges a per-ROW fetch cost the way a bandwidth-limited connector
// would.
//
// Honest-measurement notes baked into the rows rather than prose:
//   - Every scaling run pins GOMAXPROCS to its worker count and records
//     the ACTUAL value plus the machine's core count per scenario, so a
//     single-core box is visible in the report instead of implied.
//   - The 1-worker baseline pins the cluster to ONE slot, so the series
//     starts from genuinely serial execution (the default 2-slot
//     cluster would silently overlap source fetches and skew every
//     efficiency figure).
//   - CPU-bound rows cannot beat the core count; the fetchbound rows
//     exist because per-row fetch latency overlaps across workers even
//     on one core — that's the scaling the runtime actually buys on a
//     small box.

// slowSource wraps a source with a per-row fetch cost, modeling a
// connector whose throughput is bound by connection bandwidth rather
// than decode CPU. The cost is charged per ROW, not per call: a sliced
// read costs proportionally less, so shard-splitting a partition across
// workers genuinely overlaps the waiting — exactly like partitioned
// reads against a remote log.
type slowSource struct {
	inner  *sources.BusSource
	perRow time.Duration
}

func (s *slowSource) Name() string                       { return s.inner.Name() }
func (s *slowSource) Schema() sql.Schema                 { return s.inner.Schema() }
func (s *slowSource) Partitions() int                    { return s.inner.Partitions() }
func (s *slowSource) Latest() (sources.Offsets, error)   { return s.inner.Latest() }
func (s *slowSource) Earliest() (sources.Offsets, error) { return s.inner.Earliest() }

func (s *slowSource) charge(rows int64) {
	if rows > 0 {
		time.Sleep(time.Duration(rows) * s.perRow)
	}
}

func (s *slowSource) Read(p int, from, to int64) ([]sql.Row, error) {
	s.charge(to - from)
	return s.inner.Read(p, from, to)
}

func (s *slowSource) ReadVec(p int, from, to int64) (*vec.Batch, bool, error) {
	s.charge(to - from)
	return s.inner.ReadVec(p, from, to)
}

func (s *slowSource) ReadPartition(p int, from, to int64, n, of int) (*vec.Batch, bool, error) {
	lo, hi := shard.Range(from, to, n, of)
	s.charge(hi - lo)
	return s.inner.ReadPartition(p, from, to, n, of)
}

// scalingStatefulQuery buckets the bench records into 4096 keys and
// counts per key — small enough state to stay memory-resident, keyed so
// every epoch crosses the shuffle boundary and the sharded commit
// barrier.
func scalingStatefulQuery() (*incremental.Query, error) {
	plan := logical.Plan(&logical.Aggregate{
		Child: &logical.Scan{Name: "in", Streaming: true, Out: fig7Schema},
		Keys:  []sql.Expr{sql.As(sql.NewBinary(sql.OpMod, sql.Col("value"), sql.Lit(int64(4096))), "bucket")},
		Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}},
	})
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		return nil, err
	}
	return incremental.Compile(optimizer.Optimize(analyzed), logical.Update, nil)
}

// runScalingRun executes one (workload, workers) cell and returns its
// scenario row. GOMAXPROCS is pinned to the worker count for the run and
// restored afterwards; the row records what was actually in effect.
func runScalingRun(kind string, n int64, workers int, perRow time.Duration, ckpt string) (BenchScenario, error) {
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)

	topic, err := benchTopic(n)
	if err != nil {
		return BenchScenario{}, err
	}
	var src sources.Source = sources.NewCodecBusSource("in", topic, fig7Schema)
	var q *incremental.Query
	switch kind {
	case "microbatch":
		q, err = benchQuery()
	case "stateful-count":
		q, err = scalingStatefulQuery()
	case "fetchbound":
		src = &slowSource{inner: src.(*sources.BusSource), perRow: perRow}
		q, err = benchQuery()
	default:
		err = fmt.Errorf("unknown scaling workload %q", kind)
	}
	if err != nil {
		return BenchScenario{}, err
	}

	opts := engine.Options{
		Checkpoint:           ckpt,
		Workers:              workers,
		Trigger:              engine.AvailableNowTrigger{},
		MaxRecordsPerTrigger: n/16 + 1,
		FS:                   fsx.NoSync(),
		DisableHealth:        true,
	}
	if workers <= 1 {
		// Serial baseline: one simulator slot (see the package comment).
		opts.Cluster = cluster.New(cluster.Config{Nodes: 1, SlotsPerNode: 1})
	}
	start := time.Now()
	sq, err := engine.Start(q, map[string]sources.Source{"in": src}, sinks.NewMemorySink(), opts)
	if err != nil {
		return BenchScenario{}, err
	}
	if err := sq.AwaitTermination(); err != nil {
		return BenchScenario{}, err
	}
	elapsed := time.Since(start)
	snap := sq.Metrics().Snapshot()
	sc := BenchScenario{
		Name:          fmt.Sprintf("scaling-%s-w%d", kind, workers),
		Mode:          "microbatch",
		Traced:        true,
		Vectorized:    true,
		Events:        n,
		Epochs:        snap["epochs"],
		ElapsedMillis: elapsed.Milliseconds(),
		RowsPerSec:    float64(n) / elapsed.Seconds(),
		EpochP50Us:    snap["epoch.us.p50"],
		EpochP99Us:    snap["epoch.us.p99"],
	}
	stampRuntime(&sc, workers)
	return sc, nil
}

// runScalingSuite appends the scaling grid to the report: three
// workloads × workers ∈ {1, 2, 4, 8}, best of `rounds` per cell, each
// row carrying its parallel efficiency against the same workload's
// 1-worker row.
func runScalingSuite(report *BenchReport, events, rounds int, tempDir func() string) error {
	// The fetchbound workload's cost is dominated by the simulated
	// per-row fetch latency, so it uses a smaller fixed row count: big
	// enough to split well past minRecordsPerShard, small enough that the
	// serial baseline stays in the hundreds of milliseconds.
	// 10µs/row keeps the workload fetch-dominated: the decode/sink CPU
	// of 100k rows is ~60ms on this class of box, so at 1s of serial
	// fetch the Amdahl ceiling at 4 workers stays above 3×.
	fetchN := int64(events)
	if fetchN > 100_000 {
		fetchN = 100_000
	}
	const fetchPerRow = 10 * time.Microsecond
	degrees := []int{1, 2, 4, 8}
	for _, wl := range []struct {
		kind   string
		n      int64
		perRow time.Duration
	}{
		{"microbatch", int64(events), 0},
		{"stateful-count", int64(events), 0},
		{"fetchbound", fetchN, fetchPerRow},
	} {
		var baseline float64
		for _, w := range degrees {
			var best BenchScenario
			for r := 0; r < rounds; r++ {
				runtime.GC()
				sc, err := runScalingRun(wl.kind, wl.n, w, wl.perRow, tempDir())
				if err != nil {
					return fmt.Errorf("scaling-%s-w%d: %w", wl.kind, w, err)
				}
				if sc.RowsPerSec > best.RowsPerSec {
					best = sc
				}
			}
			if w == 1 {
				baseline = best.RowsPerSec
			}
			if baseline > 0 {
				best.ScalingEfficiencyPct = 100 * best.RowsPerSec / (float64(w) * baseline)
			}
			report.Scenarios = append(report.Scenarios, best)
		}
	}
	return nil
}
