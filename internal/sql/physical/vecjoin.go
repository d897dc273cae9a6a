package physical

import (
	"bytes"

	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/vec"
)

// This file is the build side and the columnar probe of a stream-static
// broadcast hash join. The static table is materialized once per engine
// start into a BroadcastIndex; the row path's per-row probe and the
// VecOp below both read that one index, so a join never carries two
// hash tables and both paths match exactly the same rows.

// BroadcastIndex is the broadcast build side: the static rows, an index
// from each row's encoded join key to the ordinals of the rows carrying
// it (in static-row order), and the rows as column vectors for the
// columnar probe. It is read-only after construction and shared by all
// concurrent map tasks.
//
// The index is an open-addressed table over the distinct encoded keys
// (codec.PutValue bytes, identical to codec.KeyString), kept in one byte
// arena and probed by codec.HashBytes: a Go map of string keys would
// allocate a string per key and take more than twice the memory, all of
// it live for as long as the query runs.
type BroadcastIndex struct {
	// Rows are the static rows, indexed by ordinal.
	Rows []sql.Row
	// Cols holds Rows column-major; nil when a row's dynamic types drift
	// from the static schema (the join then stays on the row path).
	Cols *vec.Batch
	// slots holds group id + 1 (0 = empty), linear probing, at most half
	// full. Group g's key is keys[keyOff[g]:keyOff[g+1]] and its
	// ordinals are ords[start[g]:start[g+1]].
	slots  []int32
	keys   []byte
	keyOff []int32
	start  []int32
	ords   []int32
}

// NewBroadcastIndex indexes rows by the key keyEvals compute. Rows whose
// key holds a NULL are left out: a NULL key never matches. One reused
// encoder renders every key into the arena, so building allocates per
// table, not per row or per key.
func NewBroadcastIndex(rows []sql.Row, schema sql.Schema, keyEvals []func(sql.Row) sql.Value) *BroadcastIndex {
	x := &BroadcastIndex{Rows: rows, keyOff: []int32{0}}
	if b, ok := vec.FromRows(schema, rows); ok {
		x.Cols = b
	}
	n := 8
	for n < 2*len(rows) {
		n *= 2
	}
	x.slots = make([]int32, n)
	enc := codec.NewEncoder(64)
	groupOf := make([]int32, len(rows)) // -1: NULL key
	var counts []int32
	for o, r := range rows {
		enc.Reset()
		null := false
		for _, e := range keyEvals {
			v := e(r)
			if v == nil {
				null = true
				break
			}
			enc.PutValue(v)
		}
		if null {
			groupOf[o] = -1
			continue
		}
		slot, g := x.find(enc.Bytes())
		if g < 0 {
			g = int32(len(counts))
			x.slots[slot] = g + 1
			x.keys = append(x.keys, enc.Bytes()...)
			x.keyOff = append(x.keyOff, int32(len(x.keys)))
			counts = append(counts, 0)
		}
		counts[g]++
		groupOf[o] = g
	}
	// Counting sort of ordinals by group keeps static-row order within
	// each group.
	x.start = make([]int32, len(counts)+1)
	for g, c := range counts {
		x.start[g+1] = x.start[g] + c
	}
	fill := append([]int32(nil), x.start[:len(counts)]...)
	x.ords = make([]int32, x.start[len(counts)])
	for o, g := range groupOf {
		if g >= 0 {
			x.ords[fill[g]] = int32(o)
			fill[g]++
		}
	}
	return x
}

// find returns key's group id, or -1 and the empty slot it would take.
func (x *BroadcastIndex) find(key []byte) (slot int, g int32) {
	mask := len(x.slots) - 1
	for i := int(codec.HashBytes(key)) & mask; ; i = (i + 1) & mask {
		id := x.slots[i] - 1
		if id < 0 {
			return i, -1
		}
		if bytes.Equal(x.keys[x.keyOff[id]:x.keyOff[id+1]], key) {
			return i, id
		}
	}
}

// Lookup returns the ordinals of the static rows whose encoded key equals
// key, in static-row order (nil when none). It neither allocates nor
// retains key, so key may alias a reused encoder buffer.
func (x *BroadcastIndex) Lookup(key []byte) []int32 {
	_, g := x.find(key)
	if g < 0 {
		return nil
	}
	return x.ords[x.start[g]:x.start[g+1]]
}

// BroadcastJoinMode is the stream side's view of a stream-static join
// type.
type BroadcastJoinMode uint8

const (
	// BroadcastInner emits one joined row per (stream row, matching
	// static row).
	BroadcastInner BroadcastJoinMode = iota
	// BroadcastOuter is BroadcastInner plus one NULL-filled row for each
	// unmatched stream row (the stream is the preserved side).
	BroadcastOuter
	// BroadcastSemi keeps the stream rows that match at least once.
	BroadcastSemi
	// BroadcastAnti keeps the stream rows that match nothing.
	BroadcastAnti
)

type vecBroadcastJoin struct {
	keys         []*vec.Program
	idx          *BroadcastIndex
	mode         BroadcastJoinMode
	streamIsLeft bool
	schema       sql.Schema
}

// NewVecBroadcastJoin probes idx with the stream key programs, lane by
// lane, and reproduces the row-path probe exactly: a lane with a NULL key
// never matches, and a key with several static matches expands in
// (stream lane, static-row order). idx.Cols must be non-nil, and the
// join must have no residual predicate. schema is the join's output
// schema (the stream schema for semi and anti joins). The op holds no
// mutable state, so concurrent map tasks may share it.
func NewVecBroadcastJoin(keys []*vec.Program, idx *BroadcastIndex, mode BroadcastJoinMode, streamIsLeft bool, schema sql.Schema) VecOp {
	return &vecBroadcastJoin{keys: keys, idx: idx, mode: mode, streamIsLeft: streamIsLeft, schema: schema}
}

func (j *vecBroadcastJoin) Apply(b *vec.Batch) *vec.Batch {
	keys := make([]*vec.Vector, len(j.keys))
	for i, p := range j.keys {
		keys[i] = p.Run(b)
	}
	enc := codec.NewEncoder(64)
	live := b.NumLive()
	// lanes[k] is output row k's stream lane; ords[k] its static ordinal
	// (-1 for a NULL-filled outer row). Semi and anti use lanes only.
	lanes := make([]int32, 0, live)
	var ords []int32
	if j.mode == BroadcastInner || j.mode == BroadcastOuter {
		ords = make([]int32, 0, live)
	}
	expanded := false
	for k := 0; k < live; k++ {
		i := k
		if b.Sel != nil {
			i = int(b.Sel[k])
		}
		var matches []int32
		if !anyNull(keys, i) {
			enc.Reset()
			codec.VectorKeyString(enc, keys, i)
			matches = j.idx.Lookup(enc.Bytes())
		}
		switch j.mode {
		case BroadcastSemi:
			if len(matches) > 0 {
				lanes = append(lanes, int32(i))
			}
		case BroadcastAnti:
			if len(matches) == 0 {
				lanes = append(lanes, int32(i))
			}
		default:
			if len(matches) == 0 {
				if j.mode == BroadcastOuter {
					lanes = append(lanes, int32(i))
					ords = append(ords, -1)
				}
				continue
			}
			expanded = expanded || len(matches) > 1
			for _, o := range matches {
				lanes = append(lanes, int32(i))
				ords = append(ords, o)
			}
		}
	}
	if ords == nil {
		// Semi/anti: the stream columns pass through, narrowed.
		return &vec.Batch{Schema: j.schema, Cols: b.Cols, Len: b.Len, Sel: lanes}
	}

	static := j.idx.Cols.Cols
	streamCols := b.Cols
	n, slots, sel := b.Len, lanes, lanes
	if expanded {
		// A lane appears more than once, so one slot per stream lane
		// cannot hold every match: gather both sides densely instead.
		n, slots, sel = len(lanes), nil, nil
		streamCols = make([]*vec.Vector, len(b.Cols))
		for c, v := range b.Cols {
			streamCols[c] = gather(v, n, nil, lanes)
		}
	}
	staticCols := make([]*vec.Vector, len(static))
	for c, v := range static {
		staticCols[c] = gather(v, n, slots, ords)
	}
	cols := make([]*vec.Vector, 0, len(streamCols)+len(staticCols))
	if j.streamIsLeft {
		cols = append(append(cols, streamCols...), staticCols...)
	} else {
		cols = append(append(cols, staticCols...), streamCols...)
	}
	return &vec.Batch{Schema: j.schema, Cols: cols, Len: n, Sel: sel}
}

func anyNull(keys []*vec.Vector, i int) bool {
	for _, k := range keys {
		if k.IsNull(i) {
			return true
		}
	}
	return false
}

// gather builds an n-slot vector of src's kind whose slot slots[k] (slot
// k when slots is nil) holds src[from[k]], or NULL when from[k] < 0.
// Slots nothing is gathered into hold unspecified values, as dead lanes
// may.
func gather(src *vec.Vector, n int, slots, from []int32) *vec.Vector {
	out := vec.NewVector(src.Kind, n)
	switch src.Kind {
	case vec.KindInt64:
		gatherSlab(out.Int64s, src.Int64s, slots, from)
	case vec.KindFloat64:
		gatherSlab(out.Float64s, src.Float64s, slots, from)
	case vec.KindBool:
		gatherSlab(out.Bools, src.Bools, slots, from)
	case vec.KindString:
		gatherSlab(out.Strings, src.Strings, slots, from)
	case vec.KindWindow:
		gatherSlab(out.WStarts, src.WStarts, slots, from)
		gatherSlab(out.WEnds, src.WEnds, slots, from)
	default:
		// KindAny: a nil cell is the NULL, so from < 0 needs no bitmap.
		gatherSlab(out.Anys, src.Anys, slots, from)
		return out
	}
	for k, f := range from {
		if f < 0 || src.Nulls.Get(int(f)) {
			s := k
			if slots != nil {
				s = int(slots[k])
			}
			out.SetNull(s, n)
		}
	}
	return out
}

func gatherSlab[T any](dst, src []T, slots, from []int32) {
	for k, f := range from {
		if f < 0 {
			continue
		}
		s := k
		if slots != nil {
			s = int(slots[k])
		}
		dst[s] = src[f]
	}
}
