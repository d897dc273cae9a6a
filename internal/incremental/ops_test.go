package incremental

import (
	"fmt"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/codec"
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
	// Rebuild the row path's routing from the rendered shuffle rows: key
	// columns lead the row, exactly as routeByLeadingColumns guarantees.
	want := make([][]sql.Row, nPart)
	for gi := range p.groups {
		row := p.renderRow(&p.groups[gi])
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
