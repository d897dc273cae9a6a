package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"structream/internal/incremental"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/sql/parser"
	"structream/internal/sql/physical"
)

// The engine-level differential: run the same plan over the same epoch
// sequence with Vectorize on and off, and require the sinks to end up
// byte-identical — same rows, same order, same per-epoch attribution.

// runEpochsWith drives plan over the given epochs with the requested
// vectorize setting and returns the memory sink.
func runEpochsWith(t *testing.T, plan logical.Plan, mode logical.OutputMode, epochs [][]sql.Row, vectorize bool) *sinks.MemorySink {
	t.Helper()
	src := sources.NewMemorySource("events", eventsSchema)
	q := compile(t, plan, mode, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink,
		Options{Vectorize: Bool(vectorize)})
	for _, rows := range epochs {
		src.AddData(rows...)
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatalf("vectorize=%v: %v", vectorize, err)
		}
	}
	return sink
}

func rowsExactlyEqual(t *testing.T, on, off []sql.Row, context string) {
	t.Helper()
	if len(on) != len(off) {
		t.Fatalf("%s: vectorized %d rows, row path %d rows", context, len(on), len(off))
	}
	for i := range on {
		if on[i].String() != off[i].String() {
			t.Fatalf("%s: row %d: vectorized %s, row path %s", context, i, on[i], off[i])
		}
	}
}

func TestVectorizeOnOffIdentical(t *testing.T) {
	epochs := [][]sql.Row{
		{{"a", 5.0, 1 * sec}, {"b", -2.0, 2 * sec}, {nil, 7.5, 3 * sec}},
		{{"c", math.NaN(), 4 * sec}, {"d", math.Inf(1), 5 * sec}},
		{}, // empty epoch
		{{"e", 0.0, 16 * sec}, {"a", 9.0, 17 * sec}},
		{{"late", 1.0, 2 * sec}, {"f", 3.0, 30 * sec}},
	}
	shapes := map[string]struct {
		plan logical.Plan
		mode logical.OutputMode
	}{
		"map-only-append": {
			plan: &logical.Project{
				Child: &logical.Filter{Child: streamScan("events"),
					Cond: sql.Ge(sql.Col("v"), sql.Lit(0.0))},
				Exprs: []sql.Expr{sql.Col("k"),
					sql.As(sql.Mul(sql.Col("v"), sql.Lit(2.0)), "v2"),
					sql.Col("ts")}},
			mode: logical.Append,
		},
		"windowed-agg-watermark": {
			plan: &logical.Aggregate{
				Child: &logical.WithWatermark{Child: streamScan("events"), Column: "ts", Delay: 5 * sec},
				Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 10*time.Second, 0)},
				Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}}},
			mode: logical.Append,
		},
		"keyed-agg-update": {
			plan: &logical.Aggregate{
				Child: streamScan("events"),
				Keys:  []sql.Expr{sql.Col("k")},
				Aggs: []logical.NamedAgg{
					{Agg: sql.CountAll(), Name: "cnt"},
					{Agg: sql.SumOf(sql.Col("v")), Name: "total"}}},
			mode: logical.Update,
		},
	}
	for name, s := range shapes {
		t.Run(name, func(t *testing.T) {
			on := runEpochsWith(t, s.plan, s.mode, epochs, true)
			off := runEpochsWith(t, s.plan, s.mode, epochs, false)
			rowsExactlyEqual(t, on.Rows(), off.Rows(), "all rows")
			for e := int64(0); e < int64(len(epochs))+2; e++ {
				rowsExactlyEqual(t, on.RowsForEpoch(e), off.RowsForEpoch(e), "epoch rows")
			}
		})
	}
}

// TestVectorizeTypeDriftFallsBack feeds an epoch whose dynamic types
// drift from the schema (ints in the float column): those tasks must
// take the row path and still produce identical output.
func TestVectorizeTypeDriftFallsBack(t *testing.T) {
	plan := &logical.Project{
		Child: &logical.Filter{Child: streamScan("events"),
			Cond: sql.IsNotNull(sql.Col("k"))},
		Exprs: []sql.Expr{sql.Col("k"), sql.Col("v")},
	}
	epochs := [][]sql.Row{
		{{"a", 1.5, 1 * sec}},
		{{"drift", int64(3), 2 * sec}, {"b", 2.5, 3 * sec}}, // int64 in float column
		{{"c", 4.0, 4 * sec}},
	}
	on := runEpochsWith(t, plan, logical.Append, epochs, true)
	off := runEpochsWith(t, plan, logical.Append, epochs, false)
	rowsExactlyEqual(t, on.Rows(), off.Rows(), "drifted stream")
}

// TestColumnarSinkDeliveryActive pins that the hot path really is
// columnar end to end: a map-only append query into a MemorySink
// reports its rows as vectorized and the sink sees the same data.
func TestColumnarSinkDeliveryActive(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	plan := &logical.Filter{Child: streamScan("events"),
		Cond: sql.Gt(sql.Col("v"), sql.Lit(1.0))}
	q := compile(t, plan, logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})
	src.AddData(sql.Row{"a", 0.5, 0}, sql.Row{"b", 2.0, 0}, sql.Row{"c", 3.0, 0})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	p, ok := sq.LastProgress()
	if !ok || !p.Vectorized || p.VectorizedRows != 3 {
		t.Fatalf("progress = %+v, want vectorized with 3 vectorized rows", p)
	}
	if p.NumOutputRows != 2 {
		t.Fatalf("NumOutputRows = %d, want 2", p.NumOutputRows)
	}
	expectRows(t, sink.Rows(), "[b, 2.0, 0]", "[c, 3.0, 0]")
	expectRows(t, sink.RowsForEpoch(0), "[b, 2.0, 0]", "[c, 3.0, 0]")
}

// TestRowSinkStillGetsRows: a sink without the ColumnSink capability
// must keep receiving materialized rows even with vectorization on.
func TestRowSinkStillGetsRows(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	plan := &logical.Project{Child: streamScan("events"),
		Exprs: []sql.Expr{sql.Col("k"), sql.As(sql.Add(sql.Col("v"), sql.Lit(1.0)), "v1")}}
	q := compile(t, plan, logical.Append, nil)
	var mu sync.Mutex
	var got []sinks.Batch
	fe := &sinks.ForeachSink{Fn: func(b sinks.Batch) error {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, b)
		return nil
	}}
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, fe, Options{})
	src.AddData(sql.Row{"a", 1.0, 0}, sql.Row{"b", 2.0, 0})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("foreach sink saw %d batches, want 1", len(got))
	}
	if got[0].Vecs != nil {
		t.Fatal("foreach sink received column batches without opting in")
	}
	if len(got[0].Rows) != 2 {
		t.Fatalf("foreach sink rows = %v", got[0].Rows)
	}
}

// fig6aCatalog serves the Yahoo! benchmark's ad-event stream and
// campaigns table (the schemas of internal/yahoo, which this package's
// tests cannot import).
type fig6aCatalog struct{}

var (
	fig6aEvents = sql.NewSchema(
		sql.Field{Name: "user_id", Type: sql.TypeInt64},
		sql.Field{Name: "ad_id", Type: sql.TypeInt64},
		sql.Field{Name: "event_type", Type: sql.TypeString},
		sql.Field{Name: "event_time", Type: sql.TypeTimestamp},
	)
	fig6aCampaigns = sql.NewSchema(
		sql.Field{Name: "c_ad_id", Type: sql.TypeInt64},
		sql.Field{Name: "campaign_id", Type: sql.TypeInt64},
	)
)

func (c fig6aCatalog) ResolveTable(name string) (logical.Plan, error) {
	switch name {
	case "ad_events":
		return &logical.Scan{Name: name, Streaming: true, Out: fig6aEvents}, nil
	case "campaigns":
		return &logical.Scan{Name: name, Out: fig6aCampaigns}, nil
	}
	return nil, fmt.Errorf("unknown table %q", name)
}

// TestVectorizeFig6aJoinOnOffIdentical runs the paper's Fig 6a query
// (filter → project → stream-static join → window → count) with
// vectorization on and off at workers 1/2/4. The columnar broadcast join
// must leave the sink byte-identical to the row path, including ads that
// match no campaign, NULL ad ids, and ads listed under two campaigns.
func TestVectorizeFig6aJoinOnOffIdentical(t *testing.T) {
	const sqlText = `SELECT window(event_time, '10 seconds') AS w, campaign_id, count(*) AS cnt
FROM (SELECT ad_id, event_time FROM ad_events WHERE event_type = 'view') e
JOIN campaigns c ON e.ad_id = c.c_ad_id
GROUP BY window(event_time, '10 seconds'), campaign_id`
	var campaigns []sql.Row
	for ad := int64(0); ad < 100; ad++ {
		campaigns = append(campaigns, sql.Row{ad, ad / 10})
	}
	campaigns = append(campaigns, sql.Row{int64(7), int64(99)}, sql.Row{nil, int64(98)})
	plan, err := parser.Parse(sqlText, fig6aCatalog{})
	if err != nil {
		t.Fatal(err)
	}
	q := compile(t, plan, logical.Update, func(*logical.Scan) (physical.RowSource, error) {
		return physical.NewSliceSource(fig6aCampaigns, campaigns), nil
	})

	rng := rand.New(rand.NewSource(6))
	types := []string{"view", "click", "purchase"}
	parts := make([][]sql.Row, 2)
	for i := 0; i < 600; i++ {
		var ad sql.Value = int64(rng.Intn(110)) // ads 100-109 match nothing
		if rng.Intn(20) == 0 {
			ad = nil
		}
		parts[i%2] = append(parts[i%2], sql.Row{
			int64(rng.Intn(1000)), ad, types[rng.Intn(len(types))], int64(i) * 50_000,
		})
	}
	run := func(workers int, vectorize bool) *sinks.MemorySink {
		sink := sinks.NewMemorySink()
		src := sources.NewPartitionedSource("ad_events", fig6aEvents, parts)
		sq := startQuery(t, q, map[string]sources.Source{"ad_events": src}, sink, Options{
			Workers:              workers,
			NumPartitions:        2,
			MaxRecordsPerTrigger: 97,
			Vectorize:            Bool(vectorize),
		})
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatalf("workers=%d vectorize=%v: %v", workers, vectorize, err)
		}
		if p, ok := sq.LastProgress(); vectorize && (!ok || p.VectorizedRows == 0) {
			t.Fatalf("workers=%d: vectorized run took the row path: %+v", workers, p)
		}
		return sink
	}
	for _, workers := range []int{1, 2, 4} {
		on, off := run(workers, true), run(workers, false)
		if len(off.Rows()) == 0 {
			t.Fatal("row path emitted nothing")
		}
		rowsExactlyEqual(t, on.Rows(), off.Rows(), fmt.Sprintf("workers=%d", workers))
	}
}

// TestVectorizeJoinShapesOnOffIdentical runs every stream-static join
// shape with vectorization on and off at workers 1/2/4 and requires
// byte-identical sinks: inner, outer, semi and anti joins, the static
// side on either side, a two-column key, several matches per key, NULL
// and unmatched stream keys, a join feeding an aggregation, and the two
// shapes that must stay on the row path (a residual predicate and a
// static table whose cells drift from its schema).
func TestVectorizeJoinShapesOnOffIdentical(t *testing.T) {
	dimSchema := sql.NewSchema(
		sql.Field{Name: "dk", Type: sql.TypeString},
		sql.Field{Name: "dn", Type: sql.TypeInt64},
		sql.Field{Name: "label", Type: sql.TypeString},
	)
	dim := []sql.Row{
		{"k1", int64(1), "k1-a"}, {"k2", int64(2), "k2"}, {"k1", int64(3), "k1-b"},
		{nil, int64(1), "null-key"}, {"k4", int64(1), nil}, {"k1", int64(1), "k1-c"},
	}
	drifted := append([]sql.Row(nil), dim...)
	drifted[1] = sql.Row{"k2", "two", "k2"}
	dimScan := func(rows []sql.Row) *logical.Scan {
		return &logical.Scan{Name: "dim", Out: dimSchema, Handle: rows}
	}
	resolver := func(s *logical.Scan) (physical.RowSource, error) {
		return physical.NewSliceSource(s.Out, s.Handle.([]sql.Row)), nil
	}
	keyEq := sql.Eq(sql.Col("k"), sql.Col("dk"))
	join := func(typ logical.JoinType, cond sql.Expr, rows []sql.Row) *logical.Join {
		return &logical.Join{Left: partScan(), Right: dimScan(rows), Type: typ, Cond: cond}
	}
	shapes := map[string]struct {
		plan logical.Plan
		mode logical.OutputMode
	}{
		"inner":        {join(logical.InnerJoin, keyEq, dim), logical.Append},
		"left-outer":   {join(logical.LeftOuterJoin, keyEq, dim), logical.Append},
		"semi":         {join(logical.LeftSemiJoin, keyEq, dim), logical.Append},
		"anti":         {join(logical.LeftAntiJoin, keyEq, dim), logical.Append},
		"two-key":      {join(logical.InnerJoin, sql.And(keyEq, sql.Eq(sql.Col("n"), sql.Col("dn"))), dim), logical.Append},
		"residual":     {join(logical.InnerJoin, sql.And(keyEq, sql.Gt(sql.Col("n"), sql.Col("dn"))), dim), logical.Append},
		"static-drift": {join(logical.InnerJoin, keyEq, drifted), logical.Append},
		"static-left-inner": {&logical.Join{Left: dimScan(dim), Right: partScan(),
			Type: logical.InnerJoin, Cond: keyEq}, logical.Append},
		"static-left-right-outer": {&logical.Join{Left: dimScan(dim), Right: partScan(),
			Type: logical.RightOuterJoin, Cond: keyEq}, logical.Append},
		"join-agg-update": {&logical.Aggregate{
			Child: join(logical.LeftOuterJoin, keyEq, dim),
			Keys:  []sql.Expr{sql.Col("label")},
			Aggs: []logical.NamedAgg{
				{Agg: sql.CountAll(), Name: "cnt"},
				{Agg: sql.SumOf(sql.Col("n")), Name: "total"}}}, logical.Update},
	}

	// Keys k0..k5 (k0, k3, k5 match nothing), one NULL key in seven, n
	// small enough for the two-column key to hit.
	rng := rand.New(rand.NewSource(12))
	parts := make([][]sql.Row, 2)
	for i := 0; i < 240; i++ {
		var k sql.Value = fmt.Sprintf("k%d", rng.Intn(6))
		if rng.Intn(7) == 0 {
			k = nil
		}
		parts[i%2] = append(parts[i%2], sql.Row{k, int64(rng.Intn(4)), int64(i) * sec})
	}
	run := func(q *incremental.Query, workers int, vectorize bool) *sinks.MemorySink {
		sink := sinks.NewMemorySink()
		src := sources.NewPartitionedSource("events", partSchema, parts)
		sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{
			Workers:              workers,
			NumPartitions:        2,
			MaxRecordsPerTrigger: 53,
			Vectorize:            Bool(vectorize),
		})
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatalf("workers=%d vectorize=%v: %v", workers, vectorize, err)
		}
		return sink
	}
	for name, s := range shapes {
		t.Run(name, func(t *testing.T) {
			q := compile(t, s.plan, s.mode, resolver)
			for _, workers := range []int{1, 2, 4} {
				on, off := run(q, workers, true), run(q, workers, false)
				if len(off.Rows()) == 0 {
					t.Fatal("row path emitted nothing")
				}
				ctx := fmt.Sprintf("workers=%d", workers)
				rowsExactlyEqual(t, on.Rows(), off.Rows(), ctx)
				for e := int64(0); e < 8; e++ {
					rowsExactlyEqual(t, on.RowsForEpoch(e), off.RowsForEpoch(e), ctx+" epoch rows")
				}
			}
		})
	}
}
