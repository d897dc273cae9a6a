package incremental_test

import (
	"fmt"
	"reflect"
	"testing"

	"structream/internal/incremental"
	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
	"structream/internal/sql/parser"
	"structream/internal/sql/physical"
	"structream/internal/sql/vec"
	"structream/internal/yahoo"
)

// fig6aSQL is the Yahoo! benchmark query of the paper's Fig 6a: filter →
// project → join with the static campaigns table → 10 s window → count.
const fig6aSQL = `SELECT window(event_time, '10 seconds') AS w, campaign_id, count(*) AS cnt
FROM (SELECT ad_id, event_time FROM ad_events WHERE event_type = 'view') e
JOIN campaigns c ON e.ad_id = c.c_ad_id
GROUP BY window(event_time, '10 seconds'), campaign_id`

type fig6aCatalog struct{}

func (c fig6aCatalog) ResolveTable(name string) (logical.Plan, error) {
	switch name {
	case "ad_events":
		return &logical.Scan{Name: name, Streaming: true, Out: yahoo.EventSchema}, nil
	case "campaigns":
		return &logical.Scan{Name: name, Out: yahoo.CampaignSchema}, nil
	}
	return nil, fmt.Errorf("unknown table %q", name)
}

func compileFig6a(t *testing.T, campaigns []sql.Row) *incremental.Query {
	t.Helper()
	p, err := parser.Parse(fig6aSQL, fig6aCatalog{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := analysis.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := analysis.CheckStreaming(a, logical.Update); err != nil {
		t.Fatal(err)
	}
	q, err := incremental.Compile(optimizer.Optimize(a), logical.Update, func(*logical.Scan) (physical.RowSource, error) {
		return physical.NewSliceSource(yahoo.CampaignSchema, campaigns), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestFig6aPlanStaysColumnar pins the benchmark query's plan shape: every
// map-side row stage (filter, project, join, window) has a vector op and
// the partial aggregation runs columnar, so no row stage runs between
// decode and the exchange. A stage that silently re-seals the plan
// fails here with its seal reason.
func TestFig6aPlanStaysColumnar(t *testing.T) {
	w := yahoo.Generate(4096, 100, 100_000, 1)
	q := compileFig6a(t, w.Campaigns)
	if len(q.Pipelines) != 1 {
		t.Fatalf("pipelines = %d, want 1", len(q.Pipelines))
	}
	p := q.Pipelines[0]
	if p.Vec == nil {
		t.Fatal("Fig 6a pipeline has no vector plan")
	}
	if p.Vec.Agg == nil || len(p.Vec.Ops)+1 != len(p.Stages) {
		t.Fatalf("vector plan covers %d of %d stages (agg=%v), sealed: %q",
			len(p.Vec.Ops), len(p.Stages), p.Vec.Agg != nil, p.Vec.SealReason)
	}
	if p.Vec.SealReason != "" {
		t.Fatalf("seal reason %q on a fully columnar plan", p.Vec.SealReason)
	}
	if p.KeyIdxs == nil {
		t.Fatal("shuffle keys are not plain columns: the exchange would box rows")
	}

	// The columnar map side emits the same shuffle rows as the row path.
	rowOut := p.Process(w.Events)
	b, ok := vec.FromRows(yahoo.EventSchema, w.Events)
	if !ok {
		t.Fatal("FromRows failed on generated events")
	}
	var vecOut []sql.Row
	p.ProcessBatchTo(b, func(r sql.Row) { vecOut = append(vecOut, r) })
	if len(rowOut) == 0 || !reflect.DeepEqual(vecOut, rowOut) {
		t.Fatalf("columnar shuffle rows differ from the row path:\n row (%d): %v\n vec (%d): %v",
			len(rowOut), rowOut, len(vecOut), vecOut)
	}
}
