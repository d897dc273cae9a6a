package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"structream/internal/engine"
	"structream/internal/fsx"
	"structream/internal/incremental"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
)

// The state-backend dimension of the bench suite: one group-by-key count
// workload run through both state backends, once with state that fits the
// memtable and once with state several times larger — the regime the LSM
// backend exists for. The published rows carry SSTable counts and block
// cache hit rate so a report reader can see the spill actually happened.

var stateBenchSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "v", Type: sql.TypeInt64},
)

func stateBenchQuery() (*incremental.Query, error) {
	plan := logical.Plan(&logical.Aggregate{
		Child: &logical.Scan{Name: "in", Streaming: true, Out: stateBenchSchema},
		Keys:  []sql.Expr{sql.Col("k")},
		Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}},
	})
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		return nil, err
	}
	return incremental.Compile(optimizer.Optimize(analyzed), logical.Update, nil)
}

// stateBenchTopic builds a codec-framed topic of n records cycling through
// `keys` distinct group keys — the same wire-format input the stateless
// scenarios read, so the stateful rows measure decode + aggregation +
// state maintenance end to end rather than iteration over pre-boxed rows.
func stateBenchTopic(n, keys int64) (*msgbus.Topic, error) {
	const partitions = 4
	broker := msgbus.NewBroker()
	topic, err := broker.CreateTopic("in", partitions)
	if err != nil {
		return nil, err
	}
	enc := codec.NewEncoder(32)
	recs := make([][]msgbus.Record, partitions)
	for i := int64(0); i < n; i++ {
		enc.Reset()
		enc.PutRow(sql.Row{fmt.Sprintf("k%07d", i%keys), i})
		p := int(i) % partitions
		recs[p] = append(recs[p], msgbus.Record{Value: append([]byte(nil), enc.Bytes()...)})
	}
	for p := 0; p < partitions; p++ {
		if _, err := topic.Append(p, recs[p]...); err != nil {
			return nil, err
		}
	}
	return topic, nil
}

// runStateBackendBench bulk-processes n preloaded records whose keys cycle
// through `keys` distinct groups, with the state store on the given
// backend. memtableBytes applies only to the LSM backend (0 = default);
// syncMaint pins flush/compaction inline on the commit path instead of the
// engine's background-maintenance default — the on/off dimension of the
// spill scenario. vectorize toggles the columnar stateful path (batched
// partial aggregation, vectorized watermark gate, batched state access) —
// the on/off dimension every scenario now publishes.
func runStateBackendBench(name string, n, keys int64, backend string, memtableBytes int64, syncMaint, vectorize bool, ckpt string) (BenchScenario, error) {
	topic, err := stateBenchTopic(n, keys)
	if err != nil {
		return BenchScenario{}, err
	}
	src := sources.NewCodecBusSource("in", topic, stateBenchSchema)
	q, err := stateBenchQuery()
	if err != nil {
		return BenchScenario{}, err
	}
	start := time.Now()
	sq, err := engine.Start(q, map[string]sources.Source{"in": src}, sinks.NewMemorySink(), engine.Options{
		Checkpoint:           ckpt,
		Trigger:              engine.AvailableNowTrigger{},
		MaxRecordsPerTrigger: n/8 + 1,
		FS:                   fsx.NoSync(),
		StateBackend:         backend,
		StateMemtableBytes:   memtableBytes,
		StateSyncMaintenance: syncMaint,
		Vectorize:            engine.Bool(vectorize),
	})
	if err != nil {
		return BenchScenario{}, err
	}
	if err := sq.AwaitTermination(); err != nil {
		return BenchScenario{}, err
	}
	elapsed := time.Since(start)
	snap := sq.Metrics().Snapshot()
	sc := BenchScenario{
		Name:               name,
		Mode:               "microbatch",
		Traced:             true,
		Vectorized:         vectorize,
		Backend:            backend,
		Events:             n,
		StateKeys:          keys,
		Epochs:             snap["epochs"],
		ElapsedMillis:      elapsed.Milliseconds(),
		RowsPerSec:         float64(n) / elapsed.Seconds(),
		EpochP50Us:         snap["epoch.us.p50"],
		EpochP99Us:         snap["epoch.us.p99"],
		SSTables:           snap["stateSSTables"],
		Compactions:        snap["stateCompactions"],
		SyncMaintenance:    syncMaint,
		MaintenanceStallUs: snap["stateMaintenanceStallUs"],
	}
	if traffic := snap["stateBlockCacheHits"] + snap["stateBlockCacheMisses"]; traffic > 0 {
		sc.BlockCacheHitRatePct = 100 * float64(snap["stateBlockCacheHits"]) / float64(traffic)
	}
	stampRuntime(&sc, 1)
	return sc, nil
}

// runStateBackendSuite appends the state-backend scenarios to the report:
// {memory, lsm} × {memtable-resident, spilling} × {vectorized, row path},
// plus the spilling LSM run with background maintenance pinned off — the
// on/off dimension that shows what moving flush/compaction off the commit
// path buys. Each -vec row carries VsRowPathSpeedup against its paired
// -rowpath row, the headline number for the columnar stateful path. Like
// the microbatch scenarios, each row publishes its best of `rounds` runs:
// on a single-core box a GC cycle or a load spike landing mid-run can
// halve one round's throughput, and the best round is the one that
// measures the engine rather than the interruption.
func runStateBackendSuite(report *BenchReport, events, rounds int, tempDir func() string) error {
	n := int64(events)
	smallKeys := n / 200
	if smallKeys < 1024 {
		smallKeys = 1024
	}
	spillKeys := n / 4
	// 256 KiB memtable guarantees the spill scenarios actually spill at
	// smoke-test event counts too; the small scenarios use the default.
	const spillMemtable = 256 << 10
	// rowPathBest remembers each -rowpath row's throughput; the paired
	// -vec row (which runs immediately after) divides by it.
	rowPathBest := map[string]float64{}
	for _, cfg := range []struct {
		name      string
		backend   string
		keys      int64
		memtable  int64
		syncMaint bool
		vectorize bool
	}{
		{"stateful-count-memory-small-rowpath", "memory", smallKeys, 0, false, false},
		{"stateful-count-memory-small-vec", "memory", smallKeys, 0, false, true},
		{"stateful-count-lsm-small-rowpath", "lsm", smallKeys, 0, false, false},
		{"stateful-count-lsm-small-vec", "lsm", smallKeys, 0, false, true},
		{"stateful-count-memory-spill-rowpath", "memory", spillKeys, 0, false, false},
		{"stateful-count-memory-spill-vec", "memory", spillKeys, 0, false, true},
		{"stateful-count-lsm-spill-rowpath", "lsm", spillKeys, spillMemtable, false, false},
		{"stateful-count-lsm-spill-vec", "lsm", spillKeys, spillMemtable, false, true},
		{"stateful-count-lsm-spill-syncmaint", "lsm", spillKeys, spillMemtable, true, true},
	} {
		var best BenchScenario
		for r := 0; r < rounds; r++ {
			// Collect the previous run's garbage first: with the suite's
			// relaxed GC target, whichever run happens to follow the
			// memory-backend spill would otherwise pay for collecting its
			// heap.
			runtime.GC()
			sc, err := runStateBackendBench(cfg.name, n, cfg.keys, cfg.backend, cfg.memtable, cfg.syncMaint, cfg.vectorize, tempDir())
			if err != nil {
				return fmt.Errorf("%s: %w", cfg.name, err)
			}
			if sc.RowsPerSec > best.RowsPerSec {
				best = sc
			}
		}
		if !cfg.vectorize {
			rowPathBest[strings.TrimSuffix(cfg.name, "-rowpath")] = best.RowsPerSec
		} else if base := rowPathBest[strings.TrimSuffix(cfg.name, "-vec")]; base > 0 {
			best.VsRowPathSpeedup = best.RowsPerSec / base
		}
		report.Scenarios = append(report.Scenarios, best)
	}
	return nil
}
