package state

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The batch API differential: GetBatch must agree with per-key Get across
// every resolution layer — staged puts, staged deletes, committed state in
// the memtable/sealed/SSTable stack (lsm) or the map (memory) — including
// duplicate keys within one batch.

func TestGetBatchMatchesGet(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk func(string) *Provider) {
		p := mk(t.TempDir())
		defer p.Close()
		s := open(t, p, -1)
		rng := rand.New(rand.NewSource(99))
		key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }

		// Several committed epochs so the lsm backend accumulates sealed
		// memtables and tables (2KiB memtable from forEachBackend), with
		// overwrites and deletes so shadowing order matters.
		const keys = 300
		version := int64(0)
		for epoch := 0; epoch < 6; epoch++ {
			for i := 0; i < 120; i++ {
				k := rng.Intn(keys)
				if rng.Intn(5) == 0 {
					s.Remove(key(k))
				} else {
					s.Put(key(k), []byte(fmt.Sprintf("v%d-%d", epoch, k)))
				}
			}
			if err := s.Commit(version); err != nil {
				t.Fatal(err)
			}
			version++
		}
		// Leave a staged overlay uncommitted: puts, deletes, and a
		// delete-then-put so every pending branch is exercised.
		for i := 0; i < 60; i++ {
			k := rng.Intn(keys)
			switch rng.Intn(3) {
			case 0:
				s.Put(key(k), []byte(fmt.Sprintf("staged-%d", k)))
			case 1:
				s.Remove(key(k))
			default:
				s.Remove(key(k))
				s.Put(key(k), []byte(fmt.Sprintf("flip-%d", k)))
			}
		}

		// A batch with every key plus duplicates and never-written keys.
		var batch [][]byte
		for i := 0; i < keys; i++ {
			batch = append(batch, key(i))
		}
		for i := 0; i < 50; i++ {
			batch = append(batch, key(rng.Intn(keys)))
		}
		batch = append(batch, []byte("never-written"), []byte(""))

		vals, oks := s.GetBatch(batch)
		if len(vals) != len(batch) || len(oks) != len(batch) {
			t.Fatalf("GetBatch returned %d/%d results for %d keys", len(vals), len(oks), len(batch))
		}
		for i, k := range batch {
			wantV, wantOK := s.Get(k)
			if oks[i] != wantOK || !bytes.Equal(vals[i], wantV) {
				t.Fatalf("key %q: GetBatch = (%q, %v), Get = (%q, %v)", k, vals[i], oks[i], wantV, wantOK)
			}
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestApplyBatchStagesMerges pins ApplyBatch's contract: merge sees the
// pre-batch value, non-nil results stage puts, nil results stage deletes.
func TestApplyBatchStagesMerges(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk func(string) *Provider) {
		p := mk(t.TempDir())
		defer p.Close()
		s := open(t, p, -1)
		s.Put([]byte("a"), []byte("1"))
		s.Put([]byte("dead"), []byte("x"))
		if err := s.Commit(0); err != nil {
			t.Fatal(err)
		}
		keys := [][]byte{[]byte("a"), []byte("new"), []byte("dead")}
		s.ApplyBatch(keys, func(i int, existing []byte, ok bool) []byte {
			switch string(keys[i]) {
			case "a":
				if !ok || string(existing) != "1" {
					t.Fatalf("merge(a) saw (%q, %v)", existing, ok)
				}
				return append(existing, '+')
			case "new":
				if ok {
					t.Fatalf("merge(new) unexpectedly found %q", existing)
				}
				return []byte("fresh")
			default:
				return nil // delete
			}
		})
		if err := s.Commit(1); err != nil {
			t.Fatal(err)
		}
		if v, ok := s.Get([]byte("a")); !ok || string(v) != "1+" {
			t.Fatalf("a = (%q, %v), want 1+", v, ok)
		}
		if v, ok := s.Get([]byte("new")); !ok || string(v) != "fresh" {
			t.Fatalf("new = (%q, %v), want fresh", v, ok)
		}
		if _, ok := s.Get([]byte("dead")); ok {
			t.Fatal("dead survived ApplyBatch delete")
		}
	})
}

// TestPutBatchStagesAll pins PutBatch against per-key Put, including a key
// that was staged-deleted first.
func TestPutBatchStagesAll(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk func(string) *Provider) {
		p := mk(t.TempDir())
		defer p.Close()
		s := open(t, p, -1)
		s.Remove([]byte("b"))
		s.PutBatch(
			[][]byte{[]byte("a"), []byte("b")},
			[][]byte{[]byte("1"), []byte("2")},
		)
		for k, want := range map[string]string{"a": "1", "b": "2"} {
			if v, ok := s.Get([]byte(k)); !ok || string(v) != want {
				t.Fatalf("Get(%s) = (%q, %v), want %q", k, v, ok, want)
			}
		}
		if err := s.Commit(0); err != nil {
			t.Fatal(err)
		}
		if n := s.NumKeys(); n != 2 {
			t.Fatalf("NumKeys = %d, want 2", n)
		}
	})
}

// TestSortedPutsWriteSameFiles pins the sorted-put commit path on the LSM
// backend: an epoch whose puts arrive in ascending key order (repeats of
// the last key allowed) hands that order to the tree, which then skips
// the delta sort and, for a fresh memtable, the flush sort. Every file —
// deltas, tables, manifests — must match a store that staged the same
// epochs in random order, including epochs where a removal or an
// out-of-order put ends the sorted run.
func TestSortedPutsWriteSameFiles(t *testing.T) {
	mk := func() *Provider {
		p := NewProvider(t.TempDir())
		p.Backend = BackendLSM
		p.MemtableBytes = 2 << 10
		return p
	}
	pa, pb := mk(), mk()
	defer pa.Close()
	defer pb.Close()
	sorted, shuffled := open(t, pa, -1), open(t, pb, -1)
	rng := rand.New(rand.NewSource(5))
	for version := int64(0); version < 24; version++ {
		var keys []string
		seen := map[string]bool{}
		for len(keys) < 30 {
			k := fmt.Sprintf("key-%04d", rng.Intn(400))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		val := func(k string) []byte { return []byte(fmt.Sprintf("v%d-%s", version, k)) }
		for i, k := range keys {
			sorted.Put([]byte(k), val(k))
			if i == 3 {
				sorted.Put([]byte(k), val(k)) // a repeat keeps the run sorted
			}
		}
		switch version % 4 {
		case 1:
			sorted.Remove([]byte(keys[0]))
		case 2:
			sorted.Put([]byte(keys[0]), val(keys[0])) // out of order
		}
		order := rng.Perm(len(keys))
		for _, i := range order {
			shuffled.Put([]byte(keys[i]), val(keys[i]))
		}
		if version%4 == 1 {
			shuffled.Remove([]byte(keys[0]))
		}
		if err := sorted.Commit(version); err != nil {
			t.Fatal(err)
		}
		if err := shuffled.Commit(version); err != nil {
			t.Fatal(err)
		}
	}
	if pa.Stats().Flushes == 0 {
		t.Fatal("no flush ran; the memtable order was never exercised")
	}
	read := func(p *Provider) map[string][]byte {
		t.Helper()
		dir := filepath.Join(p.Dir(), "state")
		out := map[string][]byte{}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(dir, path)
			out[rel] = b
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	got, want := read(pa), read(pb)
	if len(got) != len(want) {
		t.Fatalf("sorted puts wrote %d files, shuffled puts %d", len(got), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("%s differs between sorted and shuffled puts", name)
		}
	}
}
