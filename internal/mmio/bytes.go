package mmio

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/par"
	"repro/internal/spmat"
)

// Zero-copy RCMB decode: an image is decoded straight from a caller-owned
// byte slice (an mmap'd file — see OpenBinary — or a buffered upload body)
// with no read buffer between. Having the full image in memory enables a
// cheap first pass that splits the varint column section into per-row-block
// byte extents (a varint ends at its first byte below 0x80, so counting
// terminators locates block boundaries without decoding), after which the
// column decode fans out across a worker pool with each block writing a
// disjoint range of Col.
//
// FuzzReadBinaryBytes holds the decoder, at every block split, to the
// streaming reader it replaced, kept in the tests as refReadBinary: the
// same verdict on every input and, on accept, the same matrix and digest.

// minParallelDecode gates the decode fan-out: below this many stored
// entries the goroutine spawn outweighs the decode itself. A variable so
// tests can force the parallel path on small fixtures.
var minParallelDecode = 1 << 15

// ReadBinaryBytes decodes an RCMB image from buf. threads == 1 decodes
// serially; threads < 1 selects GOMAXPROCS. Malformed images — bad magic,
// out-of-range indices, truncation, declared sizes that do not add up — are
// rejected with descriptive errors, never panics, and whatever the thread
// count; bytes after a complete image are ignored. Every allocation is
// bounded by len(buf). The returned matrix owns its arrays — nothing
// references buf afterwards, so an mmap backing it can be unmapped as soon
// as the call returns.
func ReadBinaryBytes(buf []byte, threads int) (*spmat.CSR, error) {
	if len(buf) < 6 {
		return nil, fmt.Errorf("mmio: short binary header: %d bytes", len(buf))
	}
	var hdr [6]byte
	copy(hdr[:], buf)
	flags, err := checkBinaryHeader(hdr)
	if err != nil {
		return nil, err
	}
	p := 6
	n, p, err := uvarintAt(buf, p, "dimension", math.MaxInt32)
	if err != nil {
		return nil, err
	}
	nnz, p, err := uvarintAt(buf, p, "entry count", uint64(n)*uint64(n))
	if err != nil {
		return nil, err
	}
	// Every row length costs at least one byte, so a header whose n the
	// remaining buffer cannot back is truncated; checking up front bounds
	// the RowPtr allocation by the buffer size.
	if len(buf)-p < n {
		return nil, fmt.Errorf("mmio: truncated row length: %d rows, %d bytes left", n, len(buf)-p)
	}
	a := &spmat.CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		var cnt int
		cnt, p, err = uvarintAt(buf, p, "row length", uint64(n))
		if err != nil {
			return nil, err
		}
		a.RowPtr[i+1] = a.RowPtr[i] + cnt
	}
	if a.RowPtr[n] != nnz {
		return nil, fmt.Errorf("mmio: row lengths sum to %d, header declares %d entries", a.RowPtr[n], nnz)
	}
	if len(buf)-p < nnz {
		return nil, fmt.Errorf("mmio: truncated column index: %d entries, %d bytes left", nnz, len(buf)-p)
	}
	if nnz > 0 {
		a.Col = make([]int, nnz)
	}

	if threads != 1 && nnz < minParallelDecode {
		threads = 1
	}
	bounds := spmat.WeightedBlocks(a.RowPtr, threads)
	nb := len(bounds) - 1
	// First pass: locate each block's byte extent by counting varint
	// terminators, eight bytes at a time, with no decode.
	cuts := make([]int, nb+1)
	for k := 0; k <= nb; k++ {
		cuts[k] = a.RowPtr[bounds[k]]
	}
	offs, end, err := splitVarints(buf, p, cuts)
	if err != nil {
		return nil, err
	}
	// Second pass: each block decodes its columns into its disjoint range of
	// Col and converts the same entries' values, which the section after the
	// columns holds at fixed width. Errors are collected per block and
	// reported lowest-block-first, then the values' truncation, so rejection
	// is deterministic at any thread count.
	hasVals := flags&binaryHasVals != 0 && nnz > 0
	if hasVals && len(buf)-end >= 8*nnz {
		a.Val = make([]float64, nnz)
	}
	errs := make([]error, nb)
	par.Blocks(bounds, func(k, lo, hi int) {
		errs[k] = decodeColBlock(buf, offs[k], a, lo, hi)
		if a.Val != nil {
			decodeValBlock(buf[end+8*cuts[k]:end+8*cuts[k+1]], a.Val[cuts[k]:cuts[k+1]])
		}
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	if hasVals && a.Val == nil {
		return nil, fmt.Errorf("mmio: truncated values: %d bytes left, want %d", len(buf)-end, 8*nnz)
	}
	return a, nil
}

// ReadBinaryBytesDigest is ReadBinaryBytes followed by the canonical
// pattern digest (spmat.PatternDigest) of the decoded arrays, in one call.
// The hash is sequential — digest bytes must arrive in canonical order — so
// it costs what hashing the decoded matrix later would; rcm.ReadBinaryBytes
// leaves it to Matrix.Digest for that reason.
func ReadBinaryBytesDigest(buf []byte, threads int) (*spmat.CSR, string, error) {
	a, err := ReadBinaryBytes(buf, threads)
	if err != nil {
		return nil, "", err
	}
	return a, spmat.PatternDigest(a), nil
}

// splitVarints walks the varint stream starting at off and returns, for
// each cumulative varint count in cuts (monotone, starting at 0), the byte
// offset at which that varint begins. The last entry of cuts is the total
// count, so the last offset is the end of the section. Only terminator
// bytes are inspected; malformed varints inside the stream are left for the
// block decoders to diagnose.
//
// A varint ends at its first byte below 0x80, so the terminators in an
// 8-byte word are the set high bits of ^w & 0x80…80, and a word that does
// not reach the next cut is counted with one popcount. The word that does,
// and the bytes after the last full word, are walked a byte at a time.
func splitVarints(buf []byte, off int, cuts []int) ([]int, int, error) {
	const high = 0x8080808080808080
	offs := make([]int, len(cuts))
	ci, cnt, p := 0, 0, off
	for ci < len(cuts) && cuts[ci] == cnt {
		offs[ci] = p
		ci++
	}
	for ci < len(cuts) {
		stop := len(buf)
		if p+8 <= len(buf) {
			w := binary.LittleEndian.Uint64(buf[p:])
			if t := bits.OnesCount64(^w & high); cnt+t < cuts[ci] {
				cnt += t
				p += 8
				continue
			}
			stop = p + 8
		} else if p >= len(buf) {
			return nil, 0, fmt.Errorf("mmio: truncated column index: stream ends inside entry %d of %d", cnt, cuts[len(cuts)-1])
		}
		// Byte at a time up to stop: the word holding the next cut, or the
		// tail shorter than a word.
		for ; p < stop && ci < len(cuts); p++ {
			if buf[p] < 0x80 {
				cnt++
				for ci < len(cuts) && cuts[ci] == cnt {
					offs[ci] = p + 1
					ci++
				}
			}
		}
	}
	return offs, offs[len(offs)-1], nil
}

// decodeValBlock converts the little-endian float64s of vb into val, one
// per 8 bytes.
func decodeValBlock(vb []byte, val []float64) {
	for k := range val {
		val[k] = math.Float64frombits(binary.LittleEndian.Uint64(vb[8*k:]))
	}
}

// decodeColBlock delta-decodes the columns of rows [lo, hi) from buf
// starting at byte offset p, writing a.Col[a.RowPtr[lo]:a.RowPtr[hi]].
func decodeColBlock(buf []byte, p int, a *spmat.CSR, lo, hi int) error {
	n := a.N
	for i := lo; i < hi; i++ {
		prev := -1
		for t := a.RowPtr[i]; t < a.RowPtr[i+1]; t++ {
			d, k, err := uvarintAt(buf, p, "column index", uint64(n))
			if err != nil {
				return err
			}
			p = k
			j := d
			if prev >= 0 {
				j = prev + 1 + d
			}
			if j >= n {
				return fmt.Errorf("mmio: column %d of row %d outside 0..%d", j, i, n-1)
			}
			a.Col[t] = j
			prev = j
		}
	}
	return nil
}

// uvarintAt decodes one bounded uvarint from buf at off, returning the
// value and the offset past it, and names the field on failure.
func uvarintAt(buf []byte, off int, what string, max uint64) (int, int, error) {
	v, k := binary.Uvarint(buf[off:])
	if k == 0 {
		return 0, 0, fmt.Errorf("mmio: truncated %s: unexpected EOF", what)
	}
	if k < 0 {
		return 0, 0, fmt.Errorf("mmio: truncated %s: varint overflows a 64-bit integer", what)
	}
	if v > max {
		return 0, 0, fmt.Errorf("mmio: %s %d exceeds bound %d", what, v, max)
	}
	return int(v), off + k, nil
}
