package incremental

import (
	"fmt"
	"math/rand"
	"testing"

	"structream/internal/fsx"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/vec"
	"structream/internal/state"
)

// Micro-benchmarks for the map-side partial aggregator: the per-row update
// path (whose group hits now compare cached key bytes instead of
// re-rendering the key), and the columnar updateBatch (grouping pass +
// bulk kernels, no per-row boxing). The stream-static join benchmarks
// measure the broadcast probe on both paths.

func benchAggs() []sql.BoundAgg {
	countAll := sql.BoundAgg{Kind: sql.AggCountAll, ResultType: sql.TypeInt64}
	sum := sql.BoundAgg{
		Kind:       sql.AggSum,
		Input:      func(r sql.Row) sql.Value { return r[1] },
		ResultType: sql.TypeFloat64,
	}
	return []sql.BoundAgg{countAll, sum}
}

func benchRows(n, keys int) []sql.Row {
	rng := rand.New(rand.NewSource(1))
	rows := make([]sql.Row, n)
	for i := range rows {
		rows[i] = sql.Row{fmt.Sprintf("key-%05d", rng.Intn(keys)), rng.Float64() * 100}
	}
	return rows
}

var benchSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "v", Type: sql.TypeFloat64},
)

// BenchmarkPartialAggUpdate measures the row path: one update per row,
// hot-path dominated by key encode + hash-table hit.
func BenchmarkPartialAggUpdate(b *testing.B) {
	for _, keys := range []int{16, 4096} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			rows := benchRows(8192, keys)
			keyEval := []func(sql.Row) sql.Value{func(r sql.Row) sql.Value { return r[0] }}
			aggs := benchAggs()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := newPartialAgg(keyEval, aggs)
				for _, r := range rows {
					p.update(r)
				}
				if len(p.groups) == 0 {
					b.Fatal("no groups")
				}
			}
			b.SetBytes(8192)
		})
	}
}

// BenchmarkPartialAggUpdateBatch measures the columnar path over the same
// data: batch grouping pass plus bulk count/sum kernels.
func BenchmarkPartialAggUpdateBatch(b *testing.B) {
	for _, keys := range []int{16, 4096} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			rows := benchRows(8192, keys)
			batch, ok := vec.FromRows(benchSchema, rows)
			if !ok {
				b.Fatal("FromRows failed")
			}
			keyProg, ok := vec.Compile(sql.Col("k"), benchSchema)
			if !ok {
				b.Fatal("key compile failed")
			}
			inProg, ok := vec.Compile(sql.Col("v"), benchSchema)
			if !ok {
				b.Fatal("input compile failed")
			}
			aggs := benchAggs()
			plan := &VecAggPlan{
				KeyProgs:   []*vec.Program{keyProg},
				InputProgs: []*vec.Program{nil, inProg},
				Aggs:       aggs,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := newPartialAgg(nil, aggs)
				p.updateBatch(batch, plan)
				if len(p.groups) == 0 {
					b.Fatal("no groups")
				}
			}
			b.SetBytes(8192)
		})
	}
}

// joinBenchRows is one Fig 6a map batch: 31,250 (ad_id, event_time) rows
// whose ad ids all hit the 1,000-row campaigns table once.
const joinBenchRows, joinBenchAds = 31_250, 1_000

var joinBenchSchema = sql.NewSchema(
	sql.Field{Name: "ad_id", Type: sql.TypeInt64},
	sql.Field{Name: "event_time", Type: sql.TypeTimestamp},
)

// joinBenchPipeline compiles `stream JOIN campaigns ON ad_id = c_ad_id`
// as a map-only pipeline whose only stage is the join.
func joinBenchPipeline(b *testing.B) (*Pipeline, []sql.Row) {
	campaigns := make([]sql.Row, joinBenchAds)
	for ad := range campaigns {
		campaigns[ad] = sql.Row{int64(ad), int64(ad / 10)}
	}
	static := &logical.Scan{Name: "campaigns", Handle: campaigns, Out: sql.NewSchema(
		sql.Field{Name: "c_ad_id", Type: sql.TypeInt64},
		sql.Field{Name: "campaign_id", Type: sql.TypeInt64},
	)}
	plan := &logical.Join{
		Left:  &logical.Scan{Name: "ad_events", Streaming: true, Out: joinBenchSchema},
		Right: static, Type: logical.InnerJoin,
		Cond: sql.Eq(sql.Col("ad_id"), sql.Col("c_ad_id")),
	}
	q, err := Compile(plan, logical.Append, handleResolver)
	if err != nil {
		b.Fatal(err)
	}
	p := q.Pipelines[0]
	if !p.FullyVectorized() {
		b.Fatal("join did not vectorize")
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([]sql.Row, joinBenchRows)
	for i := range rows {
		rows[i] = sql.Row{int64(rng.Intn(joinBenchAds)), int64(i) * 10}
	}
	return p, rows
}

// BenchmarkStreamStaticJoinRow measures the row path: per-row key
// evaluation, encode, probe and joined-row assembly.
func BenchmarkStreamStaticJoinRow(b *testing.B) {
	p, rows := joinBenchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		p.ProcessTo(rows, func(sql.Row) { n++ })
		if n != joinBenchRows {
			b.Fatalf("joined %d rows", n)
		}
	}
	b.SetBytes(joinBenchRows)
}

// BenchmarkStreamStaticJoinVec measures the columnar probe over the same
// batch: key kernels, encode and probe per lane, static-column gather.
func BenchmarkStreamStaticJoinVec(b *testing.B) {
	p, rows := joinBenchPipeline(b)
	batch, ok := vec.FromRows(joinBenchSchema, rows)
	if !ok {
		b.Fatal("FromRows failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := p.ApplyVec(batch); out.NumLive() != joinBenchRows {
			b.Fatalf("joined %d rows", out.NumLive())
		}
	}
	b.SetBytes(joinBenchRows)
}

// BenchmarkStatefulAggregateProcessLSM is one reduce partition's epoch of
// `SELECT k, count(*) ... GROUP BY k` in update mode: 6K shuffle rows over
// 5K distinct keys merged into LSM state with a 64 KiB memtable, then
// committed. Keys come from a 50K key space, so state is many times the
// memtable and most keys are read back from SSTables. Maintenance (flush
// and compaction) runs inline in Commit and is timed too.
func BenchmarkStatefulAggregateProcessLSM(b *testing.B) {
	prov := state.NewProviderFS(fsx.NoSync(), b.TempDir())
	prov.Backend = state.BackendLSM
	prov.MemtableBytes = 64 << 10
	defer prov.Close()
	agg := &StatefulAggregate{
		OpName:      "agg",
		NumKeys:     1,
		Aggs:        []sql.BoundAgg{{Kind: sql.AggCountAll, ResultType: sql.TypeInt64}},
		EventKeyIdx: -1,
		Out: sql.NewSchema(
			sql.Field{Name: "k", Type: sql.TypeString},
			sql.Field{Name: "cnt", Type: sql.TypeInt64},
		),
	}
	const epochs, rowsPerEpoch, keysPerEpoch, keySpace = 8, 6_000, 5_000, 50_000
	rng := rand.New(rand.NewSource(1))
	one := codec.EncodeValues([]sql.Value{int64(1)})
	inputs := make([][]sql.Row, epochs)
	for e := range inputs {
		keys := rng.Perm(keySpace)[:keysPerEpoch]
		rows := make([]sql.Row, rowsPerEpoch)
		for i := range rows {
			k := keys[i%keysPerEpoch]
			if i >= keysPerEpoch {
				k = keys[rng.Intn(keysPerEpoch)]
			}
			rows[i] = sql.Row{fmt.Sprintf("key-%06d", k), one}
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		inputs[e] = rows
	}
	store, err := prov.Open(state.ID{Operator: agg.OpName}, -1)
	if err != nil {
		b.Fatal(err)
	}
	epoch := func(v int64) {
		ctx := &EpochContext{Epoch: v, Mode: logical.Update, Vectorize: true}
		out, err := agg.Process(ctx, store, [][]sql.Row{inputs[v%epochs], nil})
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != keysPerEpoch {
			b.Fatalf("emitted %d rows, want %d", len(out), keysPerEpoch)
		}
		if err := store.Commit(v); err != nil {
			b.Fatal(err)
		}
	}
	for v := int64(0); v < epochs; v++ { // warm: state spans the key space
		epoch(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch(int64(epochs + i))
	}
}
