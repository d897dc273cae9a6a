package engine

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"structream/internal/fsx"
	"structream/internal/incremental"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// Differential and crash tests for Options.Workers > 1: N workers must
// produce byte-identical output to the single-worker run, including
// through crashes that land between the partitions' state commits and the
// epoch's commit record.

// partSchema uses an int64 measure so every aggregate is exact: float
// sums re-associate under sharding, integers don't.
var partSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "n", Type: sql.TypeInt64},
	sql.Field{Name: "ts", Type: sql.TypeTimestamp},
)

func partScan() *logical.Scan {
	return &logical.Scan{Name: "events", Streaming: true, Out: partSchema}
}

// partSource deals seeded rows across srcParts partitions. The deal is a
// pure function of (seed, rows, srcParts), so every run over the same
// arguments streams identical data.
func partSource(seed int64, rows, srcParts int) *sources.PartitionedSource {
	rng := rand.New(rand.NewSource(seed))
	parts := make([][]sql.Row, srcParts)
	for i := 0; i < rows; i++ {
		p := i % srcParts
		parts[p] = append(parts[p], sql.Row{
			fmt.Sprintf("k%d", rng.Intn(8)),
			int64(rng.Intn(100)),
			int64(i/srcParts) * sec,
		})
	}
	return sources.NewPartitionedSource("events", partSchema, parts)
}

// partPlans are the fuzzed query shapes: stateless, dedup (the fully
// vectorized exchange path), and keyed/windowed aggregation (the
// partial-agg shuffle path).
func partPlans(t *testing.T) map[string]*incremental.Query {
	t.Helper()
	return map[string]*incremental.Query{
		"stateless-append": compile(t, &logical.Project{
			Child: &logical.Filter{Child: partScan(),
				Cond: sql.Gt(sql.Col("n"), sql.Lit(int64(30)))},
			Exprs: []sql.Expr{sql.Col("k"),
				sql.As(sql.Mul(sql.Col("n"), sql.Lit(int64(2))), "n2"),
				sql.Col("ts")},
		}, logical.Append, nil),
		"distinct-append": compile(t, &logical.Distinct{
			Child: partScan(), Cols: []string{"k", "n"},
		}, logical.Append, nil),
		"keyed-agg-update": compile(t, &logical.Aggregate{
			Child: partScan(),
			Keys:  []sql.Expr{sql.Col("k")},
			Aggs: []logical.NamedAgg{
				{Agg: sql.CountAll(), Name: "cnt"},
				{Agg: sql.SumOf(sql.Col("n")), Name: "total"},
				{Agg: sql.MinOf(sql.Col("n")), Name: "lo"},
				{Agg: sql.MaxOf(sql.Col("n")), Name: "hi"},
			},
		}, logical.Update, nil),
		"windowed-agg-update": compile(t, &logical.Aggregate{
			Child: partScan(),
			Keys: []sql.Expr{
				sql.NewWindow(sql.Col("ts"), 10*time.Second, 5*time.Second),
				sql.Col("k"),
			},
			Aggs: []logical.NamedAgg{
				{Agg: sql.CountAll(), Name: "cnt"},
				{Agg: sql.SumOf(sql.Col("n")), Name: "total"},
			},
		}, logical.Update, nil),
	}
}

// runPartitioned drives one preloaded query to completion and returns its
// sink.
func runPartitioned(t *testing.T, q *incremental.Query, seed int64, workers int, vectorize bool) *sinks.MemorySink {
	t.Helper()
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": partSource(seed, 96, 2)}, sink, Options{
		Workers:              workers,
		NumPartitions:        2,
		MaxRecordsPerTrigger: 16,
		Vectorize:            Bool(vectorize),
	})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatalf("workers=%d vectorize=%v: %v", workers, vectorize, err)
	}
	if err := sq.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	return sink
}

// TestPartitionDifferentialFuzz is the tentpole's correctness gate: for
// every fuzzed query shape, vectorize setting, and worker degree, the
// sharded runtime's sink must match the single-worker run row for row, in
// order.
func TestPartitionDifferentialFuzz(t *testing.T) {
	for name, q := range partPlans(t) {
		for _, vectorize := range []bool{false, true} {
			for _, seed := range []int64{1, 99} {
				golden := runPartitioned(t, q, seed, 1, vectorize).Rows()
				if len(golden) == 0 {
					t.Fatalf("%s: golden run emitted nothing", name)
				}
				for _, workers := range []int{2, 4} {
					got := runPartitioned(t, q, seed, workers, vectorize).Rows()
					ctx := fmt.Sprintf("%s seed=%d vectorize=%v workers=%d", name, seed, vectorize, workers)
					rowsExactlyEqual(t, got, golden, ctx)
				}
			}
		}
	}
}

// TestPartitionProgressReportsWorkers checks the worker degree is visible
// in telemetry: progress events carry the worker count and the cluster's
// task gauge moves.
func TestPartitionProgressReportsWorkers(t *testing.T) {
	q := partPlans(t)["keyed-agg-update"]
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": partSource(1, 48, 2)}, sink, Options{
		Workers:              3,
		NumPartitions:        2,
		MaxRecordsPerTrigger: 16,
	})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	prog, ok := sq.LastProgress()
	if !ok || prog.Workers != 3 {
		t.Fatalf("progress = %+v (ok=%v), want workers=3", prog, ok)
	}
	reg := sq.Metrics()
	if got := reg.Gauge("workers").Value(); got != 3 {
		t.Fatalf("workers gauge = %d", got)
	}
	if got := reg.Gauge("clusterTasksRun").Value(); got == 0 {
		t.Fatal("clusterTasksRun gauge never moved")
	}
}

// ------------------------------------------------------------- torture

// launchPartitionTorture runs the keyed-agg workload over a JSON file
// sink with the given worker degree; the op schedule under workers > 1 is
// concurrency-nondeterministic, which is exactly what the CrashWhen
// predicates below are for.
func runPartitionTorture(t *testing.T, ckpt, sinkDir string, fsys fsx.FS, workers int) error {
	t.Helper()
	q := compile(t, &logical.Aggregate{
		Child: partScan(),
		Keys:  []sql.Expr{sql.Col("k")},
		Aggs: []logical.NamedAgg{
			{Agg: sql.CountAll(), Name: "cnt"},
			{Agg: sql.SumOf(sql.Col("n")), Name: "total"},
		},
	}, logical.Update, nil)
	sink := &sinks.JSONFileSink{Dir: sinkDir, FS: fsys}
	sq, err := Start(q, map[string]sources.Source{"events": partSource(7, 48, 2)}, sink, Options{
		Checkpoint:           ckpt,
		FS:                   fsys,
		Workers:              workers,
		NumPartitions:        2,
		MaxRecordsPerTrigger: 8,
		Trigger:              ProcessingTimeTrigger{Interval: time.Hour}, // driven manually
		RetryBackoff:         time.Microsecond,
	})
	if err != nil {
		return err
	}
	t.Cleanup(func() { sq.Stop() })
	return sq.ProcessAllAvailable()
}

// nthWrite matches the n-th mutating write to a path containing part.
func nthWrite(part string, target int) func(fsx.OpKind, string) bool {
	seen := 0
	return func(kind fsx.OpKind, path string) bool {
		if kind != fsx.OpWrite || !strings.Contains(filepath.ToSlash(path), part) {
			return false
		}
		seen++
		return seen == target
	}
}

// TestPartitionCrashTorture crashes a two-partition stateful query at the
// points of the commit protocol that concurrency reorders: the 1st, 2nd
// and 7th state delta write (the 1st lands between the two partitions'
// state commits) and the 1st and 3rd commit record, each before, torn
// and after the write. It restarts the checkpoint at w2→w2, w2→w1 and
// w1→w2 and requires every case to converge to the single-worker
// crash-free output byte for byte.
func TestPartitionCrashTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("crash torture skipped with -short")
	}

	// Golden: single-worker, fault-free. Workers must not change the bytes.
	goldenSink := t.TempDir()
	if err := runPartitionTorture(t, t.TempDir(), goldenSink, fsx.NoSync(), 1); err != nil {
		t.Fatalf("golden run: %v", err)
	}
	golden := dirContents(t, goldenSink)
	if len(golden) < 2 {
		t.Fatalf("golden run produced too little output: %v", golden)
	}

	// Sharded fault-free differential before any crashing.
	plainSink := t.TempDir()
	if err := runPartitionTorture(t, t.TempDir(), plainSink, fsx.NoSync(), 2); err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	if d := sinkDiff(golden, dirContents(t, plainSink)); d != "" {
		t.Fatalf("sharded run diverged from single-worker golden:\n%s", d)
	}

	points := []struct {
		name   string
		path   string
		target int
	}{
		{"first-delta", ".delta", 1},
		{"second-delta", ".delta", 2},
		{"later-delta", ".delta", 7},
		{"first-commit", "/commits/", 1},
		{"later-commit", "/commits/", 3},
	}
	modes := []struct {
		name string
		mode fsx.CrashMode
	}{{"before", fsx.CrashBefore}, {"torn", fsx.CrashTorn}, {"after", fsx.CrashAfter}}
	for _, pt := range points {
		for _, m := range modes {
			for _, deg := range [][2]int{{2, 2}, {2, 1}, {1, 2}} {
				label := fmt.Sprintf("%s-%s w%d->w%d", pt.name, m.name, deg[0], deg[1])
				ckpt, sinkDir := t.TempDir(), t.TempDir()
				ffs := fsx.NewFaultFS(fsx.NoSync())
				ffs.CrashWhen, ffs.Mode = nthWrite(pt.path, pt.target), m.mode
				err := runPartitionTorture(t, ckpt, sinkDir, ffs, deg[0])
				if !ffs.Crashed() {
					t.Fatalf("%s: crash never fired (err=%v)", label, err)
				}
				if err == nil {
					t.Fatalf("%s: crashed run reported success", label)
				}
				// Restart over the surviving checkpoint at the other degree
				// (or the same one): the commit records alone decide what
				// replays, whatever degree wrote them.
				if err := runPartitionTorture(t, ckpt, sinkDir, fsx.NoSync(), deg[1]); err != nil {
					t.Fatalf("%s: restart failed: %v", label, err)
				}
				if d := sinkDiff(golden, dirContents(t, sinkDir)); d != "" {
					t.Fatalf("%s: sink did not converge to the crash-free output:\n%s", label, d)
				}
			}
		}
	}
}

// TestPartitionLegacyBarrierCheckpointConverges restarts a checkpoint laid
// out as the retired per-partition commit barrier left it: commit records
// that also carry "partitions" and "segments", and per-partition seals
// under segments/, including one for the epoch the crash interrupted. The
// restart must converge to the crash-free output and remove segments/.
func TestPartitionLegacyBarrierCheckpointConverges(t *testing.T) {
	goldenSink := t.TempDir()
	if err := runPartitionTorture(t, t.TempDir(), goldenSink, fsx.NoSync(), 1); err != nil {
		t.Fatalf("golden run: %v", err)
	}
	golden := dirContents(t, goldenSink)

	ckpt, sinkDir := t.TempDir(), t.TempDir()
	ffs := fsx.NewFaultFS(fsx.NoSync())
	ffs.CrashWhen, ffs.Mode = nthWrite("/commits/", 3), fsx.CrashBefore
	if err := runPartitionTorture(t, ckpt, sinkDir, ffs, 2); err == nil || !ffs.Crashed() {
		t.Fatalf("crash never fired (err=%v)", err)
	}
	// Rewrite the checkpoint into the barrier layout: epochs 0 and 1 hold
	// manifests and both seals; epoch 2 crashed after sealing partition 0.
	segDir := filepath.Join(ckpt, "segments")
	if err := os.MkdirAll(segDir, 0o755); err != nil {
		t.Fatal(err)
	}
	seal := func(epoch int64, part int) {
		name := fmt.Sprintf("%012d.part-%03d.json", epoch, part)
		body := fmt.Sprintf("{\n  \"epoch\": %d,\n  \"partition\": %d,\n  \"stateVersion\": %d\n}\n", epoch, part, epoch)
		if err := os.WriteFile(filepath.Join(segDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for epoch := int64(0); epoch < 2; epoch++ {
		path := filepath.Join(ckpt, "commits", fmt.Sprintf("%012d.json", epoch))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rec map[string]any
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		rec["partitions"] = 2
		rec["segments"] = []map[string]any{{"partition": 0, "crc32c": "00000000"}, {"partition": 1, "crc32c": "00000000"}}
		if data, err = json.MarshalIndent(rec, "", "  "); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		seal(epoch, 0)
		seal(epoch, 1)
	}
	seal(2, 0)

	if err := runPartitionTorture(t, ckpt, sinkDir, fsx.NoSync(), 2); err != nil {
		t.Fatalf("restart over the barrier checkpoint: %v", err)
	}
	if d := sinkDiff(golden, dirContents(t, sinkDir)); d != "" {
		t.Fatalf("sink did not converge to the crash-free output:\n%s", d)
	}
	if _, err := os.Stat(segDir); !os.IsNotExist(err) {
		t.Fatalf("segments/ survived the restart: %v", err)
	}
}
