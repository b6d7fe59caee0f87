package spmat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// The canonical pattern digest: a SHA-256 over the header "rcmcsr/1" +
// dimension + entry count, then the row pointers, then the column indices,
// all as little-endian 64-bit words. It is the matrix half of an ordering
// cache key (rcm.Matrix.Digest re-exports it), so its byte layout is pinned:
// changing it would silently invalidate every deployed cache.
//
// PatternHasher is the incremental form, letting the RCMB decoders fuse the
// digest into the decode pass itself — the service's binary upload path
// computes the cache key without ever re-walking RowPtr/Col — and letting
// the out-of-core BinaryScanner digest a matrix block by block without the
// whole column array resident.

// PatternHasher accumulates the canonical pattern digest incrementally. The
// writes must follow the canonical order: construction (which hashes the
// header), then the full RowPtr, then the columns in row order.
type PatternHasher struct {
	h hash.Hash
	// buf is the conversion chunk of every write. It lives here, not on
	// WriteInts' stack, because slices handed to h.Write go through an
	// interface and escape: a local chunk would be a heap allocation per
	// call, and the streaming RCMB reader writes once per row.
	buf [512 * 8]byte
}

// NewPatternHasher starts a digest for an n×n pattern with nnz stored
// entries, hashing the canonical header.
func NewPatternHasher(n, nnz int) *PatternHasher {
	ph := &PatternHasher{h: sha256.New()}
	hdr := ph.buf[:24]
	copy(hdr[:8], "rcmcsr/1")
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(nnz))
	ph.h.Write(hdr)
	return ph
}

// WriteInts streams a []int through the hash as little-endian 64-bit words,
// converting through the hasher's fixed chunk so the slice is never
// duplicated and nothing is allocated.
func (ph *PatternHasher) WriteInts(xs []int) {
	const words = len(ph.buf) / 8
	for len(xs) > 0 {
		n := min(len(xs), words)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(ph.buf[i*8:], uint64(xs[i]))
		}
		ph.h.Write(ph.buf[:n*8])
		xs = xs[n:]
	}
}

// SumHex finalizes the digest as lowercase hex.
func (ph *PatternHasher) SumHex() string {
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], ph.h.Sum(ph.buf[:0]))
	return string(dst[:])
}

// PatternDigest hashes the canonical CSR pattern in one call.
func PatternDigest(a *CSR) string {
	ph := NewPatternHasher(a.N, a.NNZ())
	ph.WriteInts(a.RowPtr)
	ph.WriteInts(a.Col)
	return ph.SumHex()
}
