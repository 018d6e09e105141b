package sstable

// Bloom filter over user keys, the LevelDB construction: k probes derived
// from a single hash via double hashing with a rotated delta.

// bloomHash is LevelDB's murmur-inspired byte-slice hash.
func bloomHash(b []byte) uint32 {
	const (
		seed = 0xbc9f1d34
		m    = 0xc6a4a793
	)
	h := uint32(seed) ^ uint32(len(b))*m
	for ; len(b) >= 4; b = b[4:] {
		h += uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
		h *= m
		h ^= h >> 16
	}
	switch len(b) {
	case 3:
		h += uint32(b[2]) << 16
		fallthrough
	case 2:
		h += uint32(b[1]) << 8
		fallthrough
	case 1:
		h += uint32(b[0])
		h *= m
		h ^= h >> 24
	}
	return h
}

// bloomFilter builds a filter for a set of keys at bitsPerKey.
type bloomFilter struct {
	bitsPerKey int
	k          int
	hashes     []uint32
}

func newBloomFilter(bitsPerKey int) *bloomFilter {
	k := bitsPerKey * 69 / 100 // bitsPerKey * ln(2)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return &bloomFilter{bitsPerKey: bitsPerKey, k: k}
}

func (f *bloomFilter) add(key []byte) {
	f.hashes = append(f.hashes, bloomHash(key))
}

// build serializes the filter: bit array followed by one byte holding k.
func (f *bloomFilter) build() []byte {
	nBits := len(f.hashes) * f.bitsPerKey
	if nBits < 64 {
		nBits = 64
	}
	nBytes := (nBits + 7) / 8
	nBits = nBytes * 8
	out := make([]byte, nBytes+1)
	out[nBytes] = byte(f.k)
	for _, h := range f.hashes {
		delta := h>>17 | h<<15
		for j := 0; j < f.k; j++ {
			pos := h % uint32(nBits)
			out[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return out
}

// bloomMayContain tests key against a serialized filter. An empty filter
// matches everything (filters are optional).
func bloomMayContain(filter, key []byte) bool {
	if len(filter) < 2 {
		return true
	}
	nBytes := len(filter) - 1
	nBits := uint32(nBytes * 8)
	k := int(filter[nBytes])
	if k > 30 {
		return true // reserved encoding: treat as always-match
	}
	h := bloomHash(key)
	delta := h>>17 | h<<15
	for j := 0; j < k; j++ {
		pos := h % nBits
		if filter[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}
