package incremental

import (
	"fmt"
	"runtime"
	"testing"

	"structream/internal/fsx"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/state"
)

// TestLookupHashedCollisions pins the open-chained group table: two keys
// forced onto the same hash slot must land in one chain, resolve to
// distinct groups, and keep first-seen emission order.
func TestLookupHashedCollisions(t *testing.T) {
	p := newPartialAgg(nil, benchAggs())
	add := func(v string) int32 {
		const h = uint64(42) // same slot for every key: worst-case chaining
		gi := p.lookupHashed(h, []byte(v))
		if g := &p.groups[gi]; g.key == nil {
			g.key = []sql.Value{v}
		}
		return gi
	}
	ga := add("a")
	gb := add("b")
	gc := add("c")
	if ga == gb || gb == gc || ga == gc {
		t.Fatalf("colliding keys shared a group: %d %d %d", ga, gb, gc)
	}
	// Hits resolve through the chain to the original groups.
	if got := add("a"); got != ga {
		t.Fatalf("re-lookup a = %d, want %d", got, ga)
	}
	if got := add("c"); got != gc {
		t.Fatalf("re-lookup c = %d, want %d", got, gc)
	}
	if len(p.groups) != 3 {
		t.Fatalf("slab has %d groups, want 3", len(p.groups))
	}
	// Emission order is first-seen order, and each group cached its key
	// bytes.
	for i, want := range []string{"a", "b", "c"} {
		g := p.groups[i]
		if string(g.keyBytes) != want {
			t.Fatalf("group %d cached key %q, want %q", i, g.keyBytes, want)
		}
		if g.key[0] != sql.Value(want) {
			t.Fatalf("group %d boxed key %v, want %v", i, g.key[0], want)
		}
	}
}

// TestScatterMatchesRowRouting pins that scatter's cached-key routing
// agrees with the row path's boxed HashKey routing for every group.
func TestScatterMatchesRowRouting(t *testing.T) {
	p := newPartialAgg(
		[]func(sql.Row) sql.Value{func(r sql.Row) sql.Value { return r[0] }},
		benchAggs(),
	)
	for i := 0; i < 64; i++ {
		var k sql.Value
		if i%7 != 0 {
			k = fmt.Sprintf("key-%d", i%13)
		}
		p.update(sql.Row{k, float64(i)})
	}
	const nPart = 4
	buckets := p.scatter(nPart)
	// Rebuild the row path's routing from independently rendered shuffle
	// rows (boxed key, then each buffer's fresh EncodeValues): key columns
	// lead the row, exactly as routeByLeadingColumns guarantees.
	want := make([][]sql.Row, nPart)
	for gi := range p.groups {
		g := &p.groups[gi]
		row := append(sql.Row{}, g.key...)
		for _, buf := range g.bufs {
			row = append(row, codec.EncodeValues(buf.Serialize()))
		}
		b := int(codec.HashKey(row[:1]) % uint64(nPart))
		want[b] = append(want[b], row)
	}
	for part := 0; part < nPart; part++ {
		if len(buckets[part]) != len(want[part]) {
			t.Fatalf("partition %d: scatter %d rows, row routing %d", part, len(buckets[part]), len(want[part]))
		}
		for i := range buckets[part] {
			if buckets[part][i].String() != want[part][i].String() {
				t.Fatalf("partition %d row %d: %v vs %v", part, i, buckets[part][i], want[part][i])
			}
		}
	}
}

// TestResetDropsPreviousGeneration pins that a table returned to the pool
// keeps its slabs but no pointer into the previous batch's groups: boxed
// keys and aggregate buffers left in the truncated slabs would stay
// reachable through the pool across the forced GC at each commit.
func TestResetDropsPreviousGeneration(t *testing.T) {
	p := newPartialAgg(nil, benchAggs())
	for i := 0; i < 8; i++ {
		gi := p.lookupHashed(uint64(i), []byte{byte(i)})
		p.groups[gi].key = []sql.Value{int64(i)}
	}
	p.reset()
	if len(p.groups) != 0 || cap(p.groups) == 0 || cap(p.bufArena) == 0 {
		t.Fatalf("reset: len %d, caps %d/%d; want empty slabs kept for reuse",
			len(p.groups), cap(p.groups), cap(p.bufArena))
	}
	for i, g := range p.groups[:cap(p.groups)] {
		if g.key != nil || g.bufs != nil || g.keyBytes != nil {
			t.Fatalf("slab slot %d still references the previous generation: %+v", i, g)
		}
	}
	for i, b := range p.bufArena[:cap(p.bufArena)] {
		if b != nil {
			t.Fatalf("buffer arena slot %d still holds %T", i, b)
		}
	}
}

// TestStoredStateRetainsOnlyLiveValues runs the vectorized aggregate for
// many epochs in which a set of hot keys is rewritten every epoch and one
// new key is written once. Both backends keep each stored value slice as
// it is, so a value sharing its backing array with the rest of its epoch's
// values would keep that epoch's dead hot-key values alive for as long as
// the once-written key lives: retained heap would grow with epochs × hot
// keys. It must instead grow only with the once-written keys.
func TestStoredStateRetainsOnlyLiveValues(t *testing.T) {
	const hot, warm, epochs = 2_000, 40, 240
	countAll := sql.BoundAgg{Kind: sql.AggCountAll, ResultType: sql.TypeInt64}
	aggs := []sql.BoundAgg{countAll, countAll, countAll, countAll}
	fields := []sql.Field{{Name: "k", Type: sql.TypeString}}
	for i := range aggs {
		fields = append(fields, sql.Field{Name: fmt.Sprintf("c%d", i), Type: sql.TypeInt64})
	}
	one := codec.EncodeValues([]sql.Value{int64(1)})
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle frees the merge pool's victims
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for _, backend := range []state.Backend{state.BackendMemory, state.BackendLSM} {
		t.Run(string(backend), func(t *testing.T) {
			prov := state.NewProviderFS(fsx.NoSync(), t.TempDir())
			prov.Backend = backend
			defer prov.Close()
			agg := &StatefulAggregate{OpName: "agg", NumKeys: 1, Aggs: aggs, EventKeyIdx: -1, Out: sql.NewSchema(fields...)}
			store, err := prov.Open(state.ID{Operator: agg.OpName}, -1)
			if err != nil {
				t.Fatal(err)
			}
			var base int64
			for v := int64(0); v < epochs; v++ {
				rows := make([]sql.Row, 0, hot+1)
				for i := 0; i < hot; i++ {
					rows = append(rows, sql.Row{fmt.Sprintf("hot-%05d", i), one, one, one, one})
				}
				rows = append(rows, sql.Row{fmt.Sprintf("once-%05d", v), one, one, one, one})
				ctx := &EpochContext{Epoch: v, Mode: logical.Update, Vectorize: true}
				if _, err := agg.Process(ctx, store, [][]sql.Row{rows, nil}); err != nil {
					t.Fatal(err)
				}
				if err := store.Commit(v); err != nil {
					t.Fatal(err)
				}
				if v == warm-1 {
					base = liveHeap()
				}
			}
			// Each epoch's values take about 30 KB, so pinned epochs would
			// add about 6 MB; 200 once-written keys add a few KB.
			grown := liveHeap() - base
			t.Logf("live heap grew %d KB", grown>>10)
			if grown > 1<<20 {
				t.Fatalf("live heap grew %d KB over %d epochs with %d live keys added", grown>>10, epochs-warm, epochs-warm)
			}
		})
	}
}
