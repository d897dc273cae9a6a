package shard

import (
	"math/rand"
	"testing"
)

// TestPartitionRangeContiguity fuzzes Range: slices must be contiguous,
// ordered, cover [from, to) exactly, and differ in length by at most one
// with the longer slices first.
func TestPartitionRangeContiguity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		from := int64(rng.Intn(1000)) - 100
		total := int64(rng.Intn(2000))
		to := from + total
		of := 1 + rng.Intn(12)
		prevHi := from
		minLen, maxLen := int64(1<<62), int64(-1)
		seenShort := false
		for n := 0; n < of; n++ {
			lo, hi := Range(from, to, n, of)
			if lo != prevHi {
				t.Fatalf("[%d,%d) of=%d: slice %d starts at %d, want %d", from, to, of, n, lo, prevHi)
			}
			if hi < lo {
				t.Fatalf("[%d,%d) of=%d: slice %d inverted [%d,%d)", from, to, of, n, lo, hi)
			}
			ln := hi - lo
			if ln < minLen {
				minLen = ln
			}
			if ln > maxLen {
				maxLen = ln
			}
			if seenShort && ln == maxLen && maxLen > minLen {
				t.Fatalf("[%d,%d) of=%d: long slice %d after a short one", from, to, of, n)
			}
			if ln == minLen && maxLen > minLen {
				seenShort = true
			}
			prevHi = hi
		}
		if prevHi != to {
			t.Fatalf("[%d,%d) of=%d: slices end at %d", from, to, of, prevHi)
		}
		if maxLen-minLen > 1 {
			t.Fatalf("[%d,%d) of=%d: slice lengths differ by %d", from, to, of, maxLen-minLen)
		}
	}
}

// TestPartitionRangeDegenerate covers the clamping edges.
func TestPartitionRangeDegenerate(t *testing.T) {
	if lo, hi := Range(5, 5, 0, 4); lo != 5 || hi != 5 {
		t.Fatalf("empty range: [%d,%d)", lo, hi)
	}
	if lo, hi := Range(9, 3, 0, 2); lo != hi {
		t.Fatalf("inverted range must clamp empty: [%d,%d)", lo, hi)
	}
	if lo, hi := Range(0, 10, 0, 0); lo != 0 || hi != 10 {
		t.Fatalf("of<1 must clamp to 1: [%d,%d)", lo, hi)
	}
}

// TestPartitionSplit checks the minPerShard floor, determinism, and that
// Split agrees with Range slice for slice.
func TestPartitionSplit(t *testing.T) {
	// 100 records, 8 workers, min 30 per shard → ceil(100/30) = 4 shards.
	s := Split(0, 100, 8, 30)
	if len(s) != 4 {
		t.Fatalf("got %d shards, want 4: %v", len(s), s)
	}
	for i, sh := range s {
		lo, hi := Range(0, 100, i, len(s))
		if sh[0] != lo || sh[1] != hi {
			t.Fatalf("shard %d = %v, Range says [%d,%d)", i, sh, lo, hi)
		}
	}
	// Tiny ranges collapse to one shard; empty ranges to none.
	if s := Split(40, 45, 8, 256); len(s) != 1 || s[0] != [2]int64{40, 45} {
		t.Fatalf("tiny range: %v", s)
	}
	if s := Split(7, 7, 4, 1); s != nil {
		t.Fatalf("empty range: %v", s)
	}
	// Pure function: same inputs, same plan.
	a, b := Split(123, 9876, 6, 64), Split(123, 9876, 6, 64)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic split: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic shard %d: %v vs %v", i, a[i], b[i])
		}
	}
}
