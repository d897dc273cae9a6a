package incremental

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/sql/vec"
)

// The differential suite drives the same data through a pipeline's row
// path (Process) and its columnar path (FromRows + ProcessBatchTo) and
// requires byte-identical output, in order. It also pins the fallback
// contract: query shapes outside the kernel set must leave the vector
// plan nil or partial, and partial plans must still produce identical
// results via materialize-then-row-stages.

var diffSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "n", Type: sql.TypeInt64},
	sql.Field{Name: "v", Type: sql.TypeFloat64},
	sql.Field{Name: "b", Type: sql.TypeBool},
	sql.Field{Name: "ts", Type: sql.TypeTimestamp},
)

func diffScan() *logical.Scan {
	return &logical.Scan{Name: "d", Streaming: true, Out: diffSchema}
}

var dimSchema = sql.NewSchema(
	sql.Field{Name: "dk", Type: sql.TypeString},
	sql.Field{Name: "dn", Type: sql.TypeInt64},
	sql.Field{Name: "label", Type: sql.TypeString},
	sql.Field{Name: "w", Type: sql.TypeFloat64},
)

// dimRows is the static side of the join shapes: "a" matches three rows
// (in a fixed order the output must keep), "b" and "" one each, "cc"
// only on the two-column key's (cc, 42), NULL keys never match, and the
// stream's "Aa" matches nothing.
func dimRows() []sql.Row {
	return []sql.Row{
		{"a", int64(1), "a1", 0.5},
		{"b", int64(42), "b1", nil},
		{"a", int64(0), "a2", math.NaN()},
		{nil, int64(1), "null-key", 1.0},
		{"cc", int64(42), nil, -2.0},
		{"a", nil, "a3", 3.0},
		{"", int64(-1), "empty", 0.0},
	}
}

// dimScan is the static table; rows override dimRows (for type drift).
func dimScan(rows []sql.Row) *logical.Scan {
	if rows == nil {
		rows = dimRows()
	}
	return &logical.Scan{Name: "dim", Out: dimSchema, Handle: rows}
}

func streamJoin(typ logical.JoinType, cond sql.Expr) *logical.Join {
	return &logical.Join{Left: diffScan(), Right: dimScan(nil), Type: typ, Cond: cond}
}

// staticLeftJoin puts the static table on the left of the stream.
func staticLeftJoin(typ logical.JoinType) *logical.Join {
	return &logical.Join{Left: dimScan(nil), Right: diffScan(), Type: typ,
		Cond: sql.Eq(sql.Col("dk"), sql.Col("k"))}
}

var (
	keyEq    = sql.Eq(sql.Col("k"), sql.Col("dk"))
	twoKeyEq = sql.And(sql.Eq(sql.Col("k"), sql.Col("dk")), sql.Eq(sql.Col("n"), sql.Col("dn")))
)

// diffRows draws schema-conforming rows with nulls and adversarial
// numerics (NaN, infinities, extremes, zeros).
func diffRows(rng *rand.Rand, n int) []sql.Row {
	keys := []string{"", "a", "b", "cc", "Aa"}
	ints := []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64}
	floats := []float64{0, 0.5, -1.25, 100, math.NaN(), math.Inf(1), math.Inf(-1)}
	rows := make([]sql.Row, n)
	for i := range rows {
		r := make(sql.Row, 5)
		if rng.Intn(6) != 0 {
			r[0] = keys[rng.Intn(len(keys))]
		}
		if rng.Intn(6) != 0 {
			r[1] = ints[rng.Intn(len(ints))]
		}
		if rng.Intn(6) != 0 {
			r[2] = floats[rng.Intn(len(floats))]
		}
		if rng.Intn(6) != 0 {
			r[3] = rng.Intn(2) == 0
		}
		if rng.Intn(6) != 0 {
			r[4] = int64(rng.Intn(100)) * sec
		}
		rows[i] = r
	}
	return rows
}

// normalizeRow maps NaN to a comparable sentinel so DeepEqual can
// compare rows containing NaN cells.
func normalizeRows(rows []sql.Row) []sql.Row {
	out := make([]sql.Row, len(rows))
	for i, r := range rows {
		nr := make(sql.Row, len(r))
		for c, v := range r {
			if f, ok := v.(float64); ok && math.IsNaN(f) {
				nr[c] = "NaN"
			} else {
				nr[c] = v
			}
		}
		out[i] = nr
	}
	return out
}

// runBoth executes the pipeline's row and columnar paths over rows and
// fails the test on any divergence. Returns false when the pipeline has
// no vector plan (nothing columnar to compare).
func runBoth(t *testing.T, p *Pipeline, rows []sql.Row) bool {
	t.Helper()
	rowOut := p.Process(rows)
	if p.Vec == nil {
		return false
	}
	b, ok := vec.FromRows(diffSchema, rows)
	if !ok {
		t.Fatal("FromRows failed on schema-conforming rows")
	}
	var vecOut []sql.Row
	p.ProcessBatchTo(b, func(r sql.Row) { vecOut = append(vecOut, r.Clone()) })
	got, want := normalizeRows(vecOut), normalizeRows(rowOut)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("columnar path diverged:\n row path (%d): %v\n vec path (%d): %v",
			len(want), want, len(got), got)
	}
	return true
}

// fixed shapes covering each vectorizable stage type, including the
// map-side partial aggregation.
func TestDifferentialFixedShapes(t *testing.T) {
	shapes := map[string]logical.Plan{
		"filter-int": &logical.Filter{Child: diffScan(),
			Cond: sql.Ge(sql.Col("n"), sql.Lit(int64(0)))},
		"filter-logic": &logical.Filter{Child: diffScan(),
			Cond: sql.And(sql.Gt(sql.Col("v"), sql.Lit(0.0)),
				sql.Or(sql.Col("b"), sql.IsNull(sql.Col("k"))))},
		"project-arith": &logical.Project{Child: diffScan(),
			Exprs: []sql.Expr{sql.Col("k"),
				sql.As(sql.Add(sql.Mul(sql.Col("n"), sql.Lit(int64(3))), sql.Lit(int64(1))), "m"),
				sql.As(sql.Div(sql.Col("v"), sql.Lit(2.0)), "h"),
				sql.As(sql.NewBinary(sql.OpMod, sql.Col("n"), sql.Lit(int64(7))), "r")}},
		"project-concat": &logical.Project{Child: diffScan(),
			Exprs: []sql.Expr{sql.As(sql.Add(sql.Col("k"), sql.Lit("!")), "kx"), sql.Col("n")}},
		"filter-project": &logical.Project{
			Child: &logical.Filter{Child: diffScan(),
				Cond: sql.IsNotNull(sql.Col("v"))},
			Exprs: []sql.Expr{sql.Col("v"), sql.As(sql.Neg(sql.Col("n")), "neg")}},
		"agg-count-sum": &logical.Aggregate{
			Child: &logical.Filter{Child: diffScan(),
				Cond: sql.Ne(sql.Col("k"), sql.Lit("b"))},
			Keys: []sql.Expr{sql.Col("k")},
			Aggs: []logical.NamedAgg{
				{Agg: sql.CountAll(), Name: "cnt"},
				{Agg: sql.SumOf(sql.Col("v")), Name: "total"}}},
		"join-inner":             streamJoin(logical.InnerJoin, keyEq),
		"join-left-outer":        streamJoin(logical.LeftOuterJoin, keyEq),
		"join-semi":              streamJoin(logical.LeftSemiJoin, keyEq),
		"join-anti":              streamJoin(logical.LeftAntiJoin, keyEq),
		"join-two-key":           streamJoin(logical.InnerJoin, twoKeyEq),
		"join-two-key-outer":     streamJoin(logical.LeftOuterJoin, twoKeyEq),
		"join-static-left-inner": staticLeftJoin(logical.InnerJoin),
		"join-static-left-outer": staticLeftJoin(logical.RightOuterJoin),
		"filter-join-project": &logical.Project{
			Child: &logical.Join{
				Left: &logical.Filter{Child: diffScan(),
					Cond: sql.Ge(sql.Col("n"), sql.Lit(int64(0)))},
				Right: dimScan(nil), Type: logical.LeftOuterJoin, Cond: keyEq},
			Exprs: []sql.Expr{sql.Col("label"), sql.Col("n"),
				sql.As(sql.Add(sql.Col("v"), sql.Col("w")), "vw")}},
		"join-agg": &logical.Aggregate{
			Child: streamJoin(logical.InnerJoin, keyEq),
			Keys:  []sql.Expr{sql.Col("label")},
			Aggs: []logical.NamedAgg{
				{Agg: sql.CountAll(), Name: "cnt"},
				{Agg: sql.SumOf(sql.Col("n")), Name: "total"}}},
	}
	for name, plan := range shapes {
		t.Run(name, func(t *testing.T) {
			mode := logical.Append
			if _, isAgg := plan.(*logical.Aggregate); isAgg {
				mode = logical.Complete
			}
			q := mustCompile(t, plan, mode)
			p := q.Pipelines[0]
			if p.Vec == nil {
				t.Fatal("shape did not vectorize at all")
			}
			if len(p.Vec.Ops) != len(p.Stages) && p.Vec.Agg == nil {
				t.Fatalf("vector plan covers %d/%d stages", len(p.Vec.Ops), len(p.Stages))
			}
			if p.Vec.SealReason != "" {
				t.Fatalf("fully vectorized plan has seal reason %q", p.Vec.SealReason)
			}
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 10; trial++ {
				runBoth(t, p, diffRows(rng, 50+rng.Intn(100)))
			}
			// Empty and single-row batches exercise the boundary cases.
			runBoth(t, p, nil)
			runBoth(t, p, diffRows(rng, 1))
		})
	}
}

// fallback-forcing shapes: the vector plan must stop short (or never
// start), and the hybrid prefix+row execution must still be identical.
func TestDifferentialFallbackShapes(t *testing.T) {
	type shape struct {
		plan   logical.Plan
		vecOps int // expected len(Vec.Ops); -1 means Vec must be nil
		mode   logical.OutputMode
		reason string // expected Vec.SealReason when vecOps > 0
	}
	// Joins behind a vectorizable filter, so the seal leaves a prefix
	// that carries the reason.
	filteredJoin := func(cond sql.Expr, dim []sql.Row) logical.Plan {
		return &logical.Join{
			Left: &logical.Filter{Child: diffScan(),
				Cond: sql.Ge(sql.Col("n"), sql.Lit(int64(-10)))},
			Right: dimScan(dim), Type: logical.InnerJoin, Cond: cond}
	}
	drifted := dimRows()
	drifted[1] = sql.Row{"b", "forty-two", "b1", nil} // string in the int64 column
	shapes := map[string]shape{
		// LIKE has no kernel: the leading filter seals an empty plan.
		"like-first": {plan: &logical.Filter{Child: diffScan(),
			Cond: sql.NewBinary(sql.OpLike, sql.Col("k"), sql.Lit("a%"))},
			vecOps: -1, mode: logical.Append},
		// A vectorizable filter before a row-only projection keeps a
		// one-op prefix (adjacent filters would be merged by the
		// optimizer, so the seal is demonstrated across stage kinds).
		"filter-then-cast": {plan: &logical.Project{
			Child: &logical.Filter{Child: diffScan(),
				Cond: sql.Ge(sql.Col("n"), sql.Lit(int64(-10)))},
			Exprs: []sql.Expr{sql.Col("k"),
				sql.As(sql.NewCast(sql.Col("n"), sql.TypeString), "s")}},
			vecOps: 1, mode: logical.Append, reason: "project: expression has no kernel"},
		// CAST has no kernel either.
		"cast-project": {plan: &logical.Project{Child: diffScan(),
			Exprs: []sql.Expr{sql.As(sql.NewCast(sql.Col("n"), sql.TypeString), "s")}},
			vecOps: -1, mode: logical.Append},
		// A stage after the seal must NOT be picked up out of order.
		"like-then-project": {plan: &logical.Project{
			Child: &logical.Filter{Child: diffScan(),
				Cond: sql.NewBinary(sql.OpLike, sql.Col("k"), sql.Lit("%"))},
			Exprs: []sql.Expr{sql.Col("n")}},
			vecOps: -1, mode: logical.Append},
		// A residual predicate needs the joined row: the probe stays on
		// the row path.
		"join-residual": {plan: filteredJoin(
			sql.And(keyEq, sql.Gt(sql.Col("v"), sql.Col("w"))), nil),
			vecOps: 1, mode: logical.Append, reason: "join: residual predicate"},
		// A static table whose cells drift from its schema cannot become
		// typed vectors.
		"join-static-drift": {plan: filteredJoin(keyEq, drifted),
			vecOps: 1, mode: logical.Append, reason: "join: static table types drift from its schema"},
		// The unsealed stage after a sealed join is not picked up.
		"join-residual-then-project": {plan: &logical.Project{
			Child: filteredJoin(sql.And(keyEq, sql.Ne(sql.Col("label"), sql.Col("k"))), nil),
			Exprs: []sql.Expr{sql.Col("label"), sql.Col("n")}},
			vecOps: 1, mode: logical.Append, reason: "join: residual predicate"},
	}
	for name, s := range shapes {
		t.Run(name, func(t *testing.T) {
			q := mustCompile(t, s.plan, s.mode)
			p := q.Pipelines[0]
			switch {
			case s.vecOps < 0:
				if p.Vec != nil && len(p.Vec.Ops) > 0 {
					t.Fatalf("expected no vector plan, got %d ops", len(p.Vec.Ops))
				}
			default:
				if p.Vec == nil || len(p.Vec.Ops) != s.vecOps {
					t.Fatalf("expected a %d-op prefix, got %+v", s.vecOps, p.Vec)
				}
				if len(p.Vec.Ops) >= len(p.Stages) {
					t.Fatalf("prefix unexpectedly covers all %d stages", len(p.Stages))
				}
				if s.reason != "" && p.Vec.SealReason != s.reason {
					t.Fatalf("seal reason %q, want %q", p.Vec.SealReason, s.reason)
				}
			}
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 10; trial++ {
				runBoth(t, p, diffRows(rng, 80))
			}
		})
	}
}

// TestDifferentialRandomQueries fuzzes whole pipelines: random
// filter/project chains over random data, byte-identical output
// required whenever anything vectorized.
func TestDifferentialRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	numExpr := func(depth int) sql.Expr { return randNumExpr(rng, depth) }
	compared := 0
	for trial := 0; trial < 120; trial++ {
		var plan logical.Plan = diffScan()
		for stages := 1 + rng.Intn(3); stages > 0; stages-- {
			if rng.Intn(2) == 0 {
				plan = &logical.Filter{Child: plan,
					Cond: sql.NewBinary(sql.BinOp(rng.Intn(6)), numExpr(1), numExpr(1))}
			} else {
				plan = &logical.Project{Child: plan, Exprs: []sql.Expr{
					sql.As(numExpr(2), "a"),
					sql.As(numExpr(1), "b"),
					sql.Col("k"),
					sql.Col("n"), sql.Col("v"), sql.Col("ts"),
				}}
			}
		}
		q := mustCompile(t, plan, logical.Append)
		if runBoth(t, q.Pipelines[0], diffRows(rng, 60)) {
			compared++
		}
	}
	if compared < 60 {
		t.Fatalf("only %d/120 random queries vectorized — fuzz coverage collapsed", compared)
	}
}

// randNumExpr builds numeric expressions over the differential schema.
func randNumExpr(rng *rand.Rand, depth int) sql.Expr {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return sql.Col("n")
		case 1:
			return sql.Col("v")
		case 2:
			return sql.Lit(int64(rng.Intn(9) - 4))
		default:
			return sql.Lit(float64(rng.Intn(7)) - 2.5)
		}
	}
	ops := []sql.BinOp{sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv, sql.OpMod}
	return sql.NewBinary(ops[rng.Intn(len(ops))], randNumExpr(rng, depth-1), randNumExpr(rng, depth-1))
}
