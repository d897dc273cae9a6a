package codec

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"structream/internal/sql"
)

func TestRowRoundTrip(t *testing.T) {
	rows := []sql.Row{
		{},
		{nil},
		{int64(0), int64(-1), int64(math.MaxInt64), int64(math.MinInt64)},
		{1.5, math.Inf(1), math.Inf(-1), 0.0},
		{"", "hello", "üñïçødé", string([]byte{0, 1, 255})},
		{true, false, nil, int64(42)},
		{sql.Window{Start: -100, End: 100}},
		{[]byte{}, []byte{1, 2, 3}},
	}
	for _, row := range rows {
		enc := EncodeRow(row)
		got, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", row, err)
		}
		if len(got) != len(row) {
			t.Fatalf("arity mismatch: %v vs %v", got, row)
		}
		for i := range row {
			if !valueEq(got[i], row[i]) {
				t.Errorf("row %v: field %d = %v, want %v", row, i, got[i], row[i])
			}
		}
	}
}

func valueEq(a, b sql.Value) bool {
	if ab, ok := a.([]byte); ok {
		bb, ok2 := b.([]byte)
		return ok2 && bytes.Equal(ab, bb)
	}
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a == b
}

func TestNaNRoundTrip(t *testing.T) {
	got, err := DecodeRow(EncodeRow(sql.Row{math.NaN()}))
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := got[0].(float64); !ok || !math.IsNaN(f) {
		t.Errorf("NaN round trip = %v", got[0])
	}
}

func TestMultipleRowsInBuffer(t *testing.T) {
	e := NewEncoder(0)
	e.PutRow(sql.Row{int64(1), "a"})
	e.PutRow(sql.Row{int64(2), "b"})
	d := NewDecoder(e.Bytes())
	r1, err := d.Row()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.Row()
	if err != nil {
		t.Fatal(err)
	}
	if r1[1] != "a" || r2[1] != "b" {
		t.Errorf("rows = %v %v", r1, r2)
	}
	if d.Remaining() {
		t.Error("buffer should be exhausted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	enc := EncodeRow(sql.Row{int64(12345), "hello world"})
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeRow(enc[:cut]); err == nil && cut < len(enc) {
			// Some prefixes may decode to a shorter valid row only if the
			// length prefix permits; a row prefix cut mid-value must error.
			row, _ := DecodeRow(enc[:cut])
			if row != nil && len(row) == 2 {
				t.Errorf("truncated buffer at %d decoded fully", cut)
			}
		}
	}
	if _, err := DecodeRow(nil); err == nil {
		t.Error("empty buffer should error")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeRow([]byte{0x01, 0xff}); err == nil {
		t.Error("unknown tag should error")
	}
}

func TestKeyStringInjective(t *testing.T) {
	// Pairs that must not collide.
	pairs := [][2][]sql.Value{
		{{"ab", "c"}, {"a", "bc"}},
		{{int64(1)}, {"1"}},
		{{nil}, {""}},
		{{int64(12)}, {int64(1), int64(2)}},
		{{true}, {int64(1)}},
	}
	for _, p := range pairs {
		if KeyString(p[0]) == KeyString(p[1]) {
			t.Errorf("KeyString collision: %v vs %v", p[0], p[1])
		}
	}
}

func TestKeyStringDeterministic(t *testing.T) {
	f := func(a int64, s string, b bool) bool {
		k1 := KeyString([]sql.Value{a, s, b})
		k2 := KeyString([]sql.Value{a, s, b})
		return k1 == k2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashKeyDistribution(t *testing.T) {
	const parts = 8
	counts := make([]int, parts)
	for i := 0; i < 8000; i++ {
		h := HashKey([]sql.Value{int64(i)})
		counts[h%parts]++
	}
	for p, c := range counts {
		if c < 500 || c > 1500 {
			t.Errorf("partition %d has %d of 8000 keys; distribution too skewed", p, c)
		}
	}
}

func TestValuesRoundTrip(t *testing.T) {
	vals := []sql.Value{int64(5), nil, "x", 2.5, true, sql.Window{Start: 1, End: 2}}
	got, err := DecodeValues(EncodeValues(vals))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range vals {
		if !valueEq(got[i], vals[i]) {
			t.Errorf("field %d: %v != %v", i, got[i], vals[i])
		}
	}
}

// TestAppendValuesMatchesEncodeValues pins the reusable-buffer encoder to
// the allocating one for every value kind (including the string fallback
// for foreign types), appended after existing bytes.
func TestAppendValuesMatchesEncodeValues(t *testing.T) {
	type foreign struct{ n int }
	kinds := [][]sql.Value{
		nil,
		{nil},
		{false, true},
		{int64(0), int64(-1), int64(1 << 40)},
		{0.0, -2.5, math.Inf(1), math.NaN()},
		{"", "campaign-42"},
		{sql.Window{Start: -10, End: 10_000_000}},
		{[]byte{}, []byte{0, 1, 255}},
		{foreign{7}},
		{int64(5), nil, "x", 2.5, true, sql.Window{Start: 1, End: 2}, []byte("b")},
	}
	prefix := []byte{0xde, 0xad}
	for _, vals := range kinds {
		want := append(append([]byte(nil), prefix...), EncodeValues(vals)...)
		got := AppendValues(append([]byte(nil), prefix...), vals)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendValues(%v) = %x, want %x", vals, got, want)
		}
	}
}

// TestDecodeValuesIntoDirtyScratch reuses one scratch slice, left holding
// longer and differently typed values, and requires every decode to equal
// a fresh DecodeValues.
func TestDecodeValuesIntoDirtyScratch(t *testing.T) {
	scratch := []sql.Value{"stale", int64(9), 1.5, true, sql.Window{Start: 3, End: 4}, []byte("old")}
	for _, vals := range [][]sql.Value{
		{int64(5), nil},
		{},
		{"x", 2.5, true, sql.Window{Start: 1, End: 2}, []byte("new"), int64(-7), nil, false},
		{[]byte{}},
	} {
		enc := EncodeValues(vals)
		want, err := DecodeValues(enc)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err = DecodeValuesInto(scratch, enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(scratch) != len(want) {
			t.Fatalf("DecodeValuesInto(%v): len %d, want %d", vals, len(scratch), len(want))
		}
		for i := range want {
			if !valueEq(scratch[i], want[i]) {
				t.Errorf("DecodeValuesInto(%v)[%d] = %v, want %v", vals, i, scratch[i], want[i])
			}
		}
	}
	if _, err := DecodeValuesInto(scratch, []byte{0xff}); err == nil {
		t.Error("DecodeValuesInto accepted a bad tag")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(0)
	e.PutValue(int64(1))
	n := len(e.Bytes())
	e.Reset()
	if len(e.Bytes()) != 0 {
		t.Error("Reset should clear the buffer")
	}
	e.PutValue(int64(1))
	if len(e.Bytes()) != n {
		t.Error("re-encoding after Reset should produce identical length")
	}
}

func BenchmarkEncodeRow(b *testing.B) {
	row := sql.Row{int64(123456), "campaign-42", 3.14159, true, sql.Window{Start: 0, End: 10_000_000}}
	e := NewEncoder(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.PutRow(row)
	}
}

func BenchmarkDecodeRow(b *testing.B) {
	enc := EncodeRow(sql.Row{int64(123456), "campaign-42", 3.14159, true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRow(enc); err != nil {
			b.Fatal(err)
		}
	}
}
