package spmat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// PatternDigest returns the canonical pattern digest of a in lowercase hex:
// a SHA-256 over the header "rcmcsr/1" + dimension + entry count, then the
// row pointers, then the column indices, all as little-endian 64-bit words.
// It is the matrix half of an ordering cache key (rcm.Matrix.Digest
// re-exports it), so its byte layout is pinned: changing it would silently
// invalidate every deployed cache.
func PatternDigest(a *CSR) string {
	h := sha256.New()
	// One conversion chunk carries the header and then every word, so the
	// arrays are never duplicated. With the hash made and fed here, Write
	// and Sum devirtualize and the chunk stays on the stack: a digest
	// allocates only its string.
	var buf [512 * 8]byte
	copy(buf[:8], "rcmcsr/1")
	binary.LittleEndian.PutUint64(buf[8:16], uint64(a.N))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(a.NNZ()))
	h.Write(buf[:24])
	for _, xs := range [2][]int{a.RowPtr, a.Col} {
		for len(xs) > 0 {
			n := min(len(xs), len(buf)/8)
			for i, x := range xs[:n] {
				binary.LittleEndian.PutUint64(buf[i*8:], uint64(x))
			}
			h.Write(buf[:n*8])
			xs = xs[n:]
		}
	}
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], h.Sum(buf[:0]))
	return string(dst[:])
}
