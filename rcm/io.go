package rcm

import (
	"fmt"
	"io"

	"repro/internal/mmio"
)

// FileHeader describes the banner and size line of a Matrix Market file.
type FileHeader struct {
	// Field is the value type of the file: "real", "integer" or
	// "pattern".
	Field string
	// Symmetry is "general" or "symmetric".
	Symmetry string
	// Rows, Cols and Entries are the declared dimensions and the stored
	// entry count (before symmetric expansion).
	Rows, Cols, Entries int
	// Comments holds the %-comment lines following the banner.
	Comments []string
}

func newFileHeader(h *mmio.Header) *FileHeader {
	return &FileHeader{
		Field:    h.Field,
		Symmetry: h.Symmetry,
		Rows:     h.Rows,
		Cols:     h.Cols,
		Entries:  h.Entries,
		Comments: h.Comments,
	}
}

// LoadMatrixMarket reads a square matrix from a Matrix Market coordinate
// file (the exchange format of the SuiteSparse collection the paper draws
// its test suite from). Symmetric storage is expanded to full storage,
// which is what the ordering algorithms expect.
func LoadMatrixMarket(path string) (*Matrix, *FileHeader, error) {
	a, hdr, err := mmio.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return wrap(a), newFileHeader(hdr), nil
}

// ReadMatrixMarket is LoadMatrixMarket over an io.Reader.
func ReadMatrixMarket(r io.Reader) (*Matrix, *FileHeader, error) {
	a, hdr, err := mmio.Read(r)
	if err != nil {
		return nil, nil, err
	}
	return wrap(a), newFileHeader(hdr), nil
}

// SaveMatrixMarket writes the matrix as a Matrix Market coordinate file.
// With symmetric set, only the lower triangle is stored under the
// "symmetric" qualifier — valid only for structurally symmetric matrices.
func SaveMatrixMarket(path string, a *Matrix, symmetric bool, comments ...string) error {
	if a == nil || a.csr == nil {
		return fmt.Errorf("rcm: nil matrix")
	}
	return mmio.WriteFile(path, a.csr, symmetric, comments...)
}

// WriteMatrixMarket is SaveMatrixMarket over an io.Writer.
func WriteMatrixMarket(w io.Writer, a *Matrix, symmetric bool, comments ...string) error {
	if a == nil || a.csr == nil {
		return fmt.Errorf("rcm: nil matrix")
	}
	return mmio.Write(w, a.csr, symmetric, comments...)
}

// ReadBinary decodes a matrix from the RCMB compact binary format, the
// upload format of the ordering service (repro/rcm/service) for matrices
// too large to ship as Matrix Market text. It reads r to EOF (bytes after
// a complete image are ignored) and decodes the bytes as ReadBinaryBytes
// does on one thread, so it holds the encoded stream — about 1–3 bytes per
// entry on banded patterns, plus 8 per value — until the decode returns;
// for a file, OpenBinary maps it instead of copying it. See WriteBinary for
// producing the format.
func ReadBinary(r io.Reader) (*Matrix, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("rcm: reading RCMB stream: %w", err)
	}
	return ReadBinaryBytes(buf, 1)
}

// ReadBinaryBytes decodes an RCMB image from a caller-owned byte slice —
// zero-copy ingest for buffers already in memory (an mmap'd file, a
// buffered upload body). The varint column section is split into row-block
// extents and decoded in parallel: threads == 1 is serial, threads < 1
// selects GOMAXPROCS. It does not hash the pattern: Digest computes the
// digest on first use, so a caller that never keys on the matrix never
// pays for it. Nothing in the returned Matrix references buf afterwards.
func ReadBinaryBytes(buf []byte, threads int) (*Matrix, error) {
	a, err := mmio.ReadBinaryBytes(buf, threads)
	if err != nil {
		return nil, err
	}
	return wrap(a), nil
}

// OpenBinary decodes the RCMB file at path through ReadBinaryBytes,
// mmap-backed on platforms that support it — the payload is paged in on
// demand and never copied through a read buffer. The mapping is released
// before the call returns. Like ReadBinaryBytes it leaves the digest to
// Digest.
func OpenBinary(path string, threads int) (*Matrix, error) {
	a, err := mmio.OpenBinary(path, threads)
	if err != nil {
		return nil, err
	}
	return wrap(a), nil
}

// WriteBinary encodes the matrix in the RCMB compact binary format read by
// ReadBinary — typically ~2 bytes per entry on banded patterns, an order of
// magnitude under coordinate text.
func WriteBinary(w io.Writer, a *Matrix) error {
	if a == nil || a.csr == nil {
		return fmt.Errorf("rcm: nil matrix")
	}
	return mmio.WriteBinary(w, a.csr)
}

// SavePermutation writes a permutation as a text file with one 1-based
// index per line, the interchange convention of symrcm and METIS-style
// tooling.
func SavePermutation(path string, perm []int) error {
	return mmio.WritePerm(path, perm)
}

// LoadPermutation reads a permutation written by SavePermutation back into
// 0-based symrcm convention.
func LoadPermutation(path string) ([]int, error) {
	return mmio.ReadPerm(path)
}
