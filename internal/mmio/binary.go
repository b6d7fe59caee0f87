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
// serialized CSR, so ReadBinaryBytes decodes an image straight into the
// final RowPtr/Col/Val arrays — no coordinate list is ever materialized:
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
