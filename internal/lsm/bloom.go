package lsm

// Bloom filters give each SSTable an O(1) "definitely not here" answer so a
// point lookup usually touches only the one table that owns the key, not
// every table on disk. The filter is built once at table-write time from
// the sorted key set and stored in the table's meta section.
//
// Layout: byte 0 is the probe count k, the rest is the bit array. Probes
// use double hashing (h1 + i*h2) over a 64-bit FNV-1a hash, which is
// deterministic across processes — a requirement, since filters are written
// on one run and read on the next.

const (
	// bloomBitsPerKey is the default filter density: ~10 bits/key ≈ 1%
	// false-positive rate.
	bloomBitsPerKey = 10
	// bloomMaxProbes caps k; more probes than this stops helping.
	bloomMaxProbes = 12
)

// fnv64a is a zero-allocation FNV-1a hash over key.
func fnv64a(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// fnv64aString is fnv64a over a string, avoiding a []byte conversion.
func fnv64aString(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// buildBloom constructs a filter for keys at the given density.
func buildBloom(keys []string, bitsPerKey int) []byte {
	hashes := make([]uint64, len(keys))
	for i, k := range keys {
		hashes[i] = fnv64aString(k)
	}
	return buildBloomFromHashes(hashes, bitsPerKey)
}

// buildBloomFromHashes constructs a filter from pre-computed FNV-1a key
// hashes — the table builder hashes each key as it streams in, so building
// the filter never needs the key set resident.
func buildBloomFromHashes(hashes []uint64, bitsPerKey int) []byte {
	if bitsPerKey <= 0 {
		bitsPerKey = bloomBitsPerKey
	}
	// k ≈ bitsPerKey * ln(2); the usual integer approximation.
	k := bitsPerKey * 69 / 100
	if k < 1 {
		k = 1
	}
	if k > bloomMaxProbes {
		k = bloomMaxProbes
	}
	nBits := len(hashes) * bitsPerKey
	if nBits < 64 {
		nBits = 64
	}
	filter := make([]byte, 1+(nBits+7)/8)
	filter[0] = byte(k)
	bits := uint64(len(filter)-1) * 8
	for _, h := range hashes {
		delta := h>>33 | h<<31
		for i := 0; i < k; i++ {
			pos := h % bits
			filter[1+pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return filter
}

// bloomMayContain reports whether key might be in the set the filter was
// built from. False positives are possible; false negatives are not. A
// malformed (too short) filter conservatively answers true.
func bloomMayContain(filter []byte, key []byte) bool {
	return bloomMayContainHash(filter, fnv64a(key))
}

// bloomMayContainHash is bloomMayContain for a key whose fnv64a hash is
// already known — a batch read hashes each key once for every table.
func bloomMayContainHash(filter []byte, h uint64) bool {
	if len(filter) < 2 {
		return true
	}
	k := int(filter[0])
	if k < 1 || k > bloomMaxProbes {
		return true
	}
	bits := uint64(len(filter)-1) * 8
	delta := h>>33 | h<<31
	for i := 0; i < k; i++ {
		pos := h % bits
		if filter[1+pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}
