package mmio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/spmat"
)

// The RCMB compact binary matrix format, the upload format of the ordering
// service for matrices too large to ship as Matrix Market text. It is a
// serialized CSR, so the reader decodes a stream straight into the final
// RowPtr/Col/Val arrays — no coordinate list is ever materialized and large
// matrices never double-buffer:
//
//	magic   "RCMB"           4 bytes
//	version 1                1 byte
//	flags                    1 byte (bit 0: float64 values follow the pattern)
//	n       uvarint          dimension
//	nnz     uvarint          stored entries
//	rows    n × uvarint      entries per row (RowPtr deltas)
//	cols    nnz × uvarint    column indices, delta-encoded within each row
//	                         (first index raw, then gap-1 to the previous:
//	                         strictly ascending columns are required, which
//	                         is the canonical CSR invariant)
//	vals    nnz × float64    little-endian, only when flags bit 0 is set
//
// Everything after the fixed header is uvarint-coded, so banded matrices —
// the service's steady state — cost ~2 bytes per entry instead of the
// ~25 bytes of coordinate text.

const (
	binaryMagic   = "RCMB"
	binaryVersion = 1
	binaryHasVals = 1 << 0
)

// WriteBinary emits a in the RCMB compact binary format.
func WriteBinary(w io.Writer, a *spmat.CSR) error {
	bw := bufio.NewWriter(w)
	flags := byte(0)
	if a.HasValues() {
		flags |= binaryHasVals
	}
	bw.WriteString(binaryMagic)
	bw.WriteByte(binaryVersion)
	bw.WriteByte(flags)
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		bw.Write(buf[:binary.PutUvarint(buf[:], v)])
	}
	putUvarint(uint64(a.N))
	putUvarint(uint64(a.NNZ()))
	for i := 0; i < a.N; i++ {
		putUvarint(uint64(a.RowPtr[i+1] - a.RowPtr[i]))
	}
	for i := 0; i < a.N; i++ {
		prev := -1
		for _, j := range a.Row(i) {
			if j <= prev {
				return fmt.Errorf("mmio: row %d columns not strictly ascending (%d after %d)", i, j, prev)
			}
			if prev < 0 {
				putUvarint(uint64(j))
			} else {
				putUvarint(uint64(j - prev - 1))
			}
			prev = j
		}
	}
	if a.HasValues() {
		// Batch the fixed-width section through a chunk buffer: one
		// bw.Write per 512 values instead of one per value, the same
		// discipline as the digest's int streaming.
		var vb [512 * 8]byte
		vals := a.Val
		for len(vals) > 0 {
			c := len(vals)
			if c > 512 {
				c = 512
			}
			for i := 0; i < c; i++ {
				binary.LittleEndian.PutUint64(vb[i*8:], math.Float64bits(vals[i]))
			}
			bw.Write(vb[:c*8])
			vals = vals[c:]
		}
	}
	return bw.Flush()
}

// ReadBinaryDigest decodes an RCMB stream into a CSR matrix and its
// canonical pattern digest (spmat.PatternDigest). The decode is streaming
// and single-buffered: bytes land directly in the final RowPtr/Col/Val
// arrays, which grow with the data actually received — every element costs
// at least one stream byte, so a malicious header cannot force a large
// allocation the body never backs. The digest is fused into the decode:
// the row pointers and each row's columns are hashed the moment they are
// decoded, so callers that need the content address never re-walk
// RowPtr/Col afterwards. Malformed streams — bad magic, out-of-range
// indices, non-ascending columns, truncation, declared sizes that do not
// add up — are rejected with descriptive errors, never panics.
// ReadBinaryBytes, which the service decodes RCMB uploads with, accepts and
// rejects exactly the streams this reader does.
func ReadBinaryDigest(r io.Reader) (*spmat.CSR, string, error) {
	br := bufio.NewReader(r)
	var hdr [6]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, "", fmt.Errorf("mmio: short binary header: %w", err)
	}
	flags, err := checkBinaryHeader(hdr)
	if err != nil {
		return nil, "", err
	}
	n, err := readUvarint(br, "dimension", math.MaxInt32)
	if err != nil {
		return nil, "", err
	}
	nnz, err := readUvarint(br, "entry count", uint64(n)*uint64(n))
	if err != nil {
		return nil, "", err
	}
	a := &spmat.CSR{N: n, RowPtr: append(make([]int, 0, boundedCap(n+1)), 0)}
	for i := 0; i < n; i++ {
		cnt, err := readUvarint(br, "row length", uint64(n))
		if err != nil {
			return nil, "", err
		}
		a.RowPtr = append(a.RowPtr, a.RowPtr[i]+cnt)
	}
	if a.RowPtr[n] != nnz {
		return nil, "", fmt.Errorf("mmio: row lengths sum to %d, header declares %d entries", a.RowPtr[n], nnz)
	}
	ph := spmat.NewPatternHasher(n, nnz)
	ph.WriteInts(a.RowPtr)
	if nnz > 0 {
		a.Col = make([]int, 0, boundedCap(nnz))
	}
	for i := 0; i < n; i++ {
		prev := -1
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d, err := readUvarint(br, "column index", uint64(n))
			if err != nil {
				return nil, "", err
			}
			j := d
			if prev >= 0 {
				j = prev + 1 + d
			}
			if j >= n {
				return nil, "", fmt.Errorf("mmio: column %d of row %d outside 0..%d", j, i, n-1)
			}
			a.Col = append(a.Col, j)
			prev = j
		}
		ph.WriteInts(a.Col[a.RowPtr[i]:a.RowPtr[i+1]])
	}
	if flags&binaryHasVals != 0 && nnz > 0 {
		a.Val = make([]float64, 0, boundedCap(nnz))
		var vb [8]byte
		for k := 0; k < nnz; k++ {
			if _, err := io.ReadFull(br, vb[:]); err != nil {
				return nil, "", fmt.Errorf("mmio: truncated values: %w", err)
			}
			a.Val = append(a.Val, math.Float64frombits(binary.LittleEndian.Uint64(vb[:])))
		}
	}
	return a, ph.SumHex(), nil
}

// checkBinaryHeader validates the 6 fixed header bytes and returns the flag
// byte.
func checkBinaryHeader(hdr [6]byte) (byte, error) {
	if string(hdr[:4]) != binaryMagic {
		return 0, fmt.Errorf("mmio: bad magic %q (want %q)", hdr[:4], binaryMagic)
	}
	if hdr[4] != binaryVersion {
		return 0, fmt.Errorf("mmio: unsupported binary version %d", hdr[4])
	}
	flags := hdr[5]
	if flags&^byte(binaryHasVals) != 0 {
		return 0, fmt.Errorf("mmio: unknown binary flags %#x", flags)
	}
	return flags, nil
}

// boundedCap caps an initial allocation hint from an untrusted header:
// arrays start at most this large and grow only as stream bytes actually
// arrive.
func boundedCap(want int) int {
	const max = 1 << 16
	if want > max {
		return max
	}
	return want
}

// readUvarint decodes one bounded uvarint, naming the field on failure.
func readUvarint(br *bufio.Reader, what string, max uint64) (int, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("mmio: truncated %s: %w", what, err)
	}
	if v > max {
		return 0, fmt.Errorf("mmio: %s %d exceeds bound %d", what, v, max)
	}
	return int(v), nil
}
