package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"structream/internal/fsx"
)

// stepScheduler runs a fixed number of inline maintenance steps after each
// commit (-1 drains), so a test can pile up tables first and then leave
// sealed memtables queued.
type stepScheduler struct{ steps int }

func (s *stepScheduler) Async() bool              { return false }
func (s *stepScheduler) StepsAfterCommit(int) int { return s.steps }

// TestGetBatchBytesMatchesGetBytes builds a tree whose keys span the
// active memtable, queued sealed memtables and at least four SSTables
// (compaction held off), with keys tombstoned in a newer table but live in
// an older one. It then requires the batch probe — memtable sweeps plus
// the sorted per-table cursor — to agree with the per-key path at every
// position of random key vectors: unsorted and sorted, with duplicates,
// and with keys below the first block, past the last block, and between
// entries and blocks.
func TestGetBatchBytesMatchesGetBytes(t *testing.T) {
	sched := &stepScheduler{steps: -1}
	opts := smallOpts(t)
	opts.MaxTierTables = 1 << 10 // keep every flush its own table
	opts.Scheduler = sched
	tr := mustOpen(t, opts)
	rng := rand.New(rand.NewSource(7))
	// Only even keys in [100, 700) are ever written; odd keys fall between
	// entries (and blocks), lower ones below every table's first key, and
	// higher ones past every table's last.
	key := func(i int) string { return fmt.Sprintf("key-%04d", i) }
	written := func() int { return 100 + 2*rng.Intn(300) }

	version := int64(1)
	commitRandom := func(n int, delEvery int) {
		t.Helper()
		puts := map[string][]byte{}
		dels := map[string]bool{}
		for i := 0; i < n; i++ {
			k := key(written())
			if rng.Intn(delEvery) == 0 {
				dels[k] = true
				delete(puts, k)
			} else {
				puts[k] = []byte(fmt.Sprintf("v%d-%s-%s", version, k, bytes.Repeat([]byte("x"), rng.Intn(24))))
				delete(dels, k)
			}
		}
		if err := tr.Commit(version, puts, dels); err != nil {
			t.Fatalf("Commit(%d): %v", version, err)
		}
		version++
	}
	// Tables: each commit outgrows the 2 KiB memtable and is flushed.
	for epoch := 0; epoch < 8; epoch++ {
		commitRandom(60, 3)
	}
	// Sealed memtables: later commits seal but nothing flushes them.
	sched.steps = 0
	commitRandom(60, 3)
	commitRandom(60, 3)
	// Active memtable: a commit small enough to stay unsealed.
	commitRandom(6, 3)

	tr.mu.Lock()
	nTables, nSealed, nMem := len(tr.tables), len(tr.sealed), tr.mem.len()
	tables := append([]*Table(nil), tr.tables...)
	tr.mu.Unlock()
	if nTables < 4 || nSealed == 0 || nMem == 0 {
		t.Fatalf("tree shape: %d tables, %d sealed, %d active keys; want >=4, >=1, >=1", nTables, nSealed, nMem)
	}
	shadowed := 0
	for i := 100; i < 700; i += 2 {
		k := []byte(key(i))
		newestTomb := false
		for ti := len(tables) - 1; ti >= 0; ti-- {
			_, tomb, ok, err := tables[ti].get(k)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			if !newestTomb && !tomb {
				break // newest record in the tables is live
			}
			if newestTomb && !tomb {
				shadowed++
				break
			}
			newestTomb = true
		}
	}
	if shadowed == 0 {
		t.Fatal("no key is tombstoned in a newer table and live in an older one")
	}

	check := func(name string, batch [][]byte) {
		t.Helper()
		values := make([][]byte, len(batch))
		oks := make([]bool, len(batch))
		for i := range values {
			values[i], oks[i] = []byte("stale"), true // must be overwritten
		}
		if err := tr.GetBatchBytes(batch, values, oks); err != nil {
			t.Fatalf("%s: GetBatchBytes: %v", name, err)
		}
		for i, k := range batch {
			wantV, wantOK, err := tr.GetBytes(k)
			if err != nil {
				t.Fatalf("GetBytes(%q): %v", k, err)
			}
			if oks[i] != wantOK || !bytes.Equal(values[i], wantV) {
				t.Fatalf("%s: position %d key %q: batch = (%q, %v), scalar = (%q, %v)", name, i, k, values[i], oks[i], wantV, wantOK)
			}
		}
	}
	for round := 0; round < 20; round++ {
		var batch [][]byte
		for i := 0; i < 300; i++ {
			batch = append(batch, []byte(key(rng.Intn(800))))
		}
		for i := 0; i < 40; i++ { // duplicates
			batch = append(batch, batch[rng.Intn(len(batch))])
		}
		batch = append(batch, []byte(""), []byte("a"), []byte("key-"), []byte("zzz-never"))
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		check("unsorted", batch)
		sort.Slice(batch, func(i, j int) bool { return bytes.Compare(batch[i], batch[j]) < 0 })
		check("sorted", batch)
	}
	var all [][]byte
	for i := 0; i < 800; i++ {
		all = append(all, []byte(key(i)))
	}
	check("every key", all)

	// Empty batch is a no-op.
	if err := tr.GetBatchBytes(nil, nil, nil); err != nil {
		t.Fatalf("empty GetBatchBytes: %v", err)
	}
}

// TestOrderedCommitMatchesUnordered pins that a commit whose put keys
// arrive pre-sorted (skipping the delta sort, and handing its order to
// the memtable flush) writes byte-identical deltas, tables and manifests
// to the same commits without an order; and that an order breaking the
// contract is ignored rather than trusted.
func TestOrderedCommitMatchesUnordered(t *testing.T) {
	ordered, plain := smallOpts(t), smallOpts(t)
	trO, trP := mustOpen(t, ordered), mustOpen(t, plain)
	rng := rand.New(rand.NewSource(3))
	for version := int64(1); version <= 30; version++ {
		puts := map[string][]byte{}
		for i := 0; i < 40; i++ {
			puts[fmt.Sprintf("k%03d", rng.Intn(300))] = bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 1+rng.Intn(20))
		}
		var dels map[string]bool
		order := make([]string, 0, len(puts))
		for k := range puts {
			order = append(order, k)
		}
		sort.Strings(order)
		switch version % 5 {
		case 3: // deletions: the order does not apply
			dels = map[string]bool{fmt.Sprintf("k%03d", rng.Intn(300)): true}
		case 4: // not ascending: ignored
			order[0], order[len(order)-1] = order[len(order)-1], order[0]
		}
		if err := trO.CommitWithHints(version, puts, dels, nil, order); err != nil {
			t.Fatalf("ordered Commit(%d): %v", version, err)
		}
		if err := trP.Commit(version, puts, dels); err != nil {
			t.Fatalf("Commit(%d): %v", version, err)
		}
	}
	if trP.Stats().Flushes == 0 {
		t.Fatal("no flush ran; the memtable order was never exercised")
	}
	files := func(dir string) map[string][]byte {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = b
		}
		return out
	}
	got, want := files(ordered.Dir), files(plain.Dir)
	if len(got) != len(want) {
		t.Fatalf("ordered commits wrote %d files, unordered %d", len(got), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("%s differs between ordered and unordered commits", name)
		}
	}
}

// BenchmarkTreeGetBatchBytes resolves 6K sorted keys, about half of them
// present, against a tree of 8 SSTables and an empty memtable: the batch
// read the vectorized aggregate issues once per partition and epoch.
func BenchmarkTreeGetBatchBytes(b *testing.B) {
	tr, err := Open(Options{
		FS:            fsx.NoSync(),
		Dir:           b.TempDir(),
		MemtableBytes: 1, // every commit seals and flushes its own table
		MaxTierTables: 64,
		Cache:         NewBlockCache(32 << 20),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	rng := rand.New(rand.NewSource(1))
	key := func(i int) string { return fmt.Sprintf("key-%08d", i) }
	const tables, perTable = 8, 6000
	for v := int64(1); v <= tables; v++ {
		puts := make(map[string][]byte, perTable)
		for len(puts) < perTable {
			puts[key(rng.Intn(2*tables*perTable))] = []byte{byte(v), 1, 2}
		}
		if err := tr.Commit(v, puts, nil); err != nil {
			b.Fatal(err)
		}
	}
	if n := tr.Stats().Tables; n != tables {
		b.Fatalf("%d tables, want %d", n, tables)
	}
	keys := make([][]byte, 6000)
	for i := range keys {
		keys[i] = []byte(key(rng.Intn(2 * tables * perTable)))
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	values := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.GetBatchBytes(keys, values, oks); err != nil {
			b.Fatal(err)
		}
	}
}
