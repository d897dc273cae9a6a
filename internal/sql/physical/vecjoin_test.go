package physical

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/codec"
)

// TestBroadcastIndexMatchesKeyStringTable checks the open-addressed
// index against a plain map keyed by codec.KeyString: every probe —
// present, absent, NULL-bearing, two-column — returns exactly the
// static ordinals carrying that key, in static-row order.
func TestBroadcastIndexMatchesKeyStringTable(t *testing.T) {
	schema := sql.NewSchema(
		sql.Field{Name: "a", Type: sql.TypeInt64},
		sql.Field{Name: "b", Type: sql.TypeString},
	)
	keyEvals := []func(sql.Row) sql.Value{
		func(r sql.Row) sql.Value { return r[0] },
		func(r sql.Row) sql.Value { return r[1] },
	}
	rng := rand.New(rand.NewSource(3))
	value := func() sql.Row {
		var a, b sql.Value = int64(rng.Intn(300)), fmt.Sprintf("s%d", rng.Intn(4))
		if rng.Intn(10) == 0 {
			a = nil
		}
		return sql.Row{a, b}
	}
	for _, n := range []int{0, 1, 7, 500, 3000} {
		rows := make([]sql.Row, n)
		want := map[string][]int32{}
		for o := range rows {
			rows[o] = value()
			if rows[o][0] != nil {
				ks := codec.KeyString(rows[o])
				want[ks] = append(want[ks], int32(o))
			}
		}
		x := NewBroadcastIndex(rows, schema, keyEvals)
		if x.Cols == nil || x.Cols.Len != n {
			t.Fatalf("n=%d: static columns not built", n)
		}
		for probe := 0; probe < 2000; probe++ {
			key := value()
			got := x.Lookup([]byte(codec.KeyString(key)))
			if w := want[codec.KeyString(key)]; !reflect.DeepEqual(got, w) && len(got)+len(w) > 0 {
				t.Fatalf("n=%d: Lookup(%v) = %v, want %v", n, key, got, w)
			}
		}
	}
}
