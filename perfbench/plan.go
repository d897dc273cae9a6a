package main

import (
	"fmt"
	"time"

	"structream/internal/incremental"
	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
	"structream/internal/sql/parser"
	"structream/internal/sql/physical"
)

// catalog resolves the names a workload's SQL refers to: one stream and
// any number of static tables.
type catalog struct {
	streams map[string]sql.Schema
	tables  map[string]staticTable
}

type staticTable struct {
	schema sql.Schema
	rows   []sql.Row
}

// ResolveTable implements parser.Catalog.
func (c *catalog) ResolveTable(name string) (logical.Plan, error) {
	if s, ok := c.streams[name]; ok {
		return &logical.Scan{Name: name, Streaming: true, Out: s}, nil
	}
	if t, ok := c.tables[name]; ok {
		return &logical.Scan{Name: name, Out: t.schema}, nil
	}
	return nil, fmt.Errorf("unknown table or stream %q", name)
}

func (c *catalog) resolveStatic(scan *logical.Scan) (physical.RowSource, error) {
	t, ok := c.tables[scan.Name]
	if !ok {
		return nil, fmt.Errorf("no data for table %q", scan.Name)
	}
	return physical.NewSliceSource(t.schema, t.rows), nil
}

// planned is a compiled query with the time each planner stage took.
type planned struct {
	query   *incremental.Query
	plan    time.Duration // parse, analyze, streaming checks, optimize
	compile time.Duration // incrementalization
}

// planQuery runs the planner exactly as the session's writer does:
// parse → analyze → §5.1 streaming checks → optimize → incremental.Compile.
func planQuery(cat *catalog, text string, mode logical.OutputMode) (planned, error) {
	t0 := time.Now()
	p, err := parser.Parse(text, cat)
	if err != nil {
		return planned{}, fmt.Errorf("parse: %w", err)
	}
	a, err := analysis.Analyze(p)
	if err != nil {
		return planned{}, fmt.Errorf("analyze: %w", err)
	}
	if err := analysis.CheckStreaming(a, mode); err != nil {
		return planned{}, fmt.Errorf("streaming check: %w", err)
	}
	o := optimizer.Optimize(a)
	t1 := time.Now()
	q, err := incremental.Compile(o, mode, cat.resolveStatic)
	if err != nil {
		return planned{}, fmt.Errorf("compile: %w", err)
	}
	return planned{query: q, plan: t1.Sub(t0), compile: time.Since(t1)}, nil
}
