package mmio

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/spmat"
)

// Zero-copy RCMB decode: the same format as ReadBinaryDigest, decoded
// straight from a caller-owned byte slice (typically an mmap'd file — see
// OpenBinary) instead of an io.Reader. Skipping the bufio layer removes one
// copy of the whole stream, and having the full image in memory enables the
// trick the reader path cannot do: a cheap first pass that splits the
// varint column section into per-row-block byte extents (a varint ends at
// its first byte below 0x80, so counting terminators locates block
// boundaries without decoding), after which the column decode fans out
// across a worker pool with each block writing a disjoint range of Col.
//
// Accept/reject behavior is identical to ReadBinaryDigest: the fuzz harness
// feeds both decoders the same corpus and requires the same verdict and, on
// accept, the same matrix.

// minParallelDecode gates the decode fan-out: below this many stored
// entries the goroutine spawn outweighs the decode itself. A variable so
// tests can force the parallel path on small fixtures.
var minParallelDecode = 1 << 15

// ReadBinaryBytes decodes an RCMB image from buf. threads == 1 decodes
// serially; threads < 1 selects GOMAXPROCS. The returned matrix owns its
// arrays — nothing references buf afterwards, so an mmap backing it can be
// unmapped as soon as the call returns.
func ReadBinaryBytes(buf []byte, threads int) (*spmat.CSR, error) {
	a, _, err := readBinaryBytes(buf, threads, false)
	return a, err
}

// ReadBinaryBytesDigest is ReadBinaryBytes followed by the canonical
// pattern digest (spmat.PatternDigest) of the decoded arrays, in one call.
// The hash is sequential — digest bytes must arrive in canonical order —
// and runs over arrays the parallel decode has already filled, so it costs
// what hashing the decoded matrix later would; rcm.ReadBinaryBytes leaves
// it to Matrix.Digest for that reason.
func ReadBinaryBytesDigest(buf []byte, threads int) (*spmat.CSR, string, error) {
	return readBinaryBytes(buf, threads, true)
}

func readBinaryBytes(buf []byte, threads int, wantDigest bool) (*spmat.CSR, string, error) {
	if len(buf) < 6 {
		return nil, "", fmt.Errorf("mmio: short binary header: %d bytes", len(buf))
	}
	var hdr [6]byte
	copy(hdr[:], buf)
	flags, err := checkBinaryHeader(hdr)
	if err != nil {
		return nil, "", err
	}
	p := 6
	n, p, err := uvarintAt(buf, p, "dimension", math.MaxInt32)
	if err != nil {
		return nil, "", err
	}
	nnz, p, err := uvarintAt(buf, p, "entry count", uint64(n)*uint64(n))
	if err != nil {
		return nil, "", err
	}
	// Every row length costs at least one byte, so a header whose n the
	// remaining buffer cannot back is truncated; checking up front bounds
	// the RowPtr allocation by the buffer size.
	if len(buf)-p < n {
		return nil, "", fmt.Errorf("mmio: truncated row length: %d rows, %d bytes left", n, len(buf)-p)
	}
	a := &spmat.CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		var cnt int
		cnt, p, err = uvarintAt(buf, p, "row length", uint64(n))
		if err != nil {
			return nil, "", err
		}
		a.RowPtr[i+1] = a.RowPtr[i] + cnt
	}
	if a.RowPtr[n] != nnz {
		return nil, "", fmt.Errorf("mmio: row lengths sum to %d, header declares %d entries", a.RowPtr[n], nnz)
	}
	if len(buf)-p < nnz {
		return nil, "", fmt.Errorf("mmio: truncated column index: %d entries, %d bytes left", nnz, len(buf)-p)
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
	// terminators — no decode, one branch per byte.
	cuts := make([]int, nb+1)
	for k := 0; k <= nb; k++ {
		cuts[k] = a.RowPtr[bounds[k]]
	}
	offs, end, err := splitVarints(buf, p, cuts)
	if err != nil {
		return nil, "", err
	}
	// Second pass: decode each block's columns into its disjoint range of
	// Col. Errors are collected per block and reported lowest-block-first,
	// so rejection is deterministic at any thread count.
	errs := make([]error, nb)
	par.Blocks(bounds, func(k, lo, hi int) { errs[k] = decodeColBlock(buf, offs[k], a, lo, hi) })
	for _, e := range errs {
		if e != nil {
			return nil, "", e
		}
	}
	p = end

	if flags&binaryHasVals != 0 && nnz > 0 {
		if len(buf)-p < 8*nnz {
			return nil, "", fmt.Errorf("mmio: truncated values: %d bytes left, want %d", len(buf)-p, 8*nnz)
		}
		a.Val = make([]float64, nnz)
		vb := buf[p:]
		for k := 0; k < nnz; k++ {
			a.Val[k] = math.Float64frombits(binary.LittleEndian.Uint64(vb[k*8:]))
		}
	}

	digest := ""
	if wantDigest {
		ph := spmat.NewPatternHasher(n, nnz)
		ph.WriteInts(a.RowPtr)
		ph.WriteInts(a.Col)
		digest = ph.SumHex()
	}
	return a, digest, nil
}

// splitVarints walks the varint stream starting at off and returns, for
// each cumulative varint count in cuts (monotone, starting at 0), the byte
// offset at which that varint begins. The last entry of cuts is the total
// count, so the last offset is the end of the section. Only terminator
// bytes are inspected; malformed varints inside the stream are left for the
// block decoders to diagnose.
func splitVarints(buf []byte, off int, cuts []int) ([]int, int, error) {
	offs := make([]int, len(cuts))
	ci, cnt, p := 0, 0, off
	for ci < len(cuts) && cuts[ci] == cnt {
		offs[ci] = p
		ci++
	}
	for ci < len(cuts) {
		// Skip one varint: continuation bytes, then the terminator.
		for p < len(buf) && buf[p] >= 0x80 {
			p++
		}
		if p >= len(buf) {
			return nil, 0, fmt.Errorf("mmio: truncated column index: stream ends inside entry %d of %d", cnt, cuts[len(cuts)-1])
		}
		p++
		cnt++
		for ci < len(cuts) && cuts[ci] == cnt {
			offs[ci] = p
			ci++
		}
	}
	return offs, offs[len(offs)-1], nil
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
// value and the offset past it — the slice analogue of readUvarint.
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
