// Package mmio reads and writes Matrix Market coordinate files, the exchange
// format of the University of Florida sparse matrix collection the paper
// draws its test suite from. Supported qualifiers: real, integer and pattern
// fields; general and symmetric symmetry. Symmetric files are expanded to
// full storage on read (mirroring the off-diagonal entries), which is what
// the ordering algorithms expect.
package mmio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/spmat"
)

// Header describes the matrix-market banner of a file.
type Header struct {
	Field     string // "real", "integer", "pattern"
	Symmetry  string // "general", "symmetric"
	Rows      int
	Cols      int
	Entries   int // stored entries (before symmetric expansion)
	Comments  []string
	Symmetric bool
}

// The line scanner starts at scanBufInit and doubles, capped at scanBufMax,
// the longest line (newline included) Read accepts. Whatever the start, the
// last growth lands on exactly scanBufMax, so the too-long verdict does not
// depend on it.
const (
	scanBufInit = 1 << 16
	scanBufMax  = 1 << 24
)

// Read parses a Matrix Market coordinate stream into a square CSR matrix.
// Rectangular inputs are rejected: the RCM pipeline is defined on square
// symmetric matrices. Symmetric storage is expanded.
//
// Entry lines are split in place by asciiFields and parsed without
// allocating; a line holding a non-ASCII byte goes through strings.Fields
// instead, whose Unicode separators the ASCII scanner does not know. Both
// yield the same fields, so the verdict and every error string are the
// same either way.
func Read(r io.Reader) (*spmat.CSR, *Header, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, scanBufInit), scanBufMax)
	if !sc.Scan() {
		return nil, nil, fmt.Errorf("mmio: empty input")
	}
	banner := strings.Fields(strings.ToLower(sc.Text()))
	if len(banner) < 5 || banner[0] != "%%matrixmarket" || banner[1] != "matrix" || banner[2] != "coordinate" {
		return nil, nil, fmt.Errorf("mmio: unsupported banner %q (want %%%%MatrixMarket matrix coordinate ...)", sc.Text())
	}
	h := &Header{Field: banner[3], Symmetry: banner[4]}
	switch h.Field {
	case "real", "integer", "pattern":
	default:
		return nil, nil, fmt.Errorf("mmio: unsupported field %q", h.Field)
	}
	switch h.Symmetry {
	case "general":
	case "symmetric":
		h.Symmetric = true
	default:
		return nil, nil, fmt.Errorf("mmio: unsupported symmetry %q", h.Symmetry)
	}
	// Size line, after comments.
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "%") {
			h.Comments = append(h.Comments, line)
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, nil, fmt.Errorf("mmio: malformed size line %q", line)
		}
		var err error
		if h.Rows, err = strconv.Atoi(f[0]); err != nil {
			return nil, nil, fmt.Errorf("mmio: bad row count: %v", err)
		}
		if h.Cols, err = strconv.Atoi(f[1]); err != nil {
			return nil, nil, fmt.Errorf("mmio: bad column count: %v", err)
		}
		if h.Entries, err = strconv.Atoi(f[2]); err != nil {
			return nil, nil, fmt.Errorf("mmio: bad entry count: %v", err)
		}
		break
	}
	if h.Rows < 0 || h.Cols < 0 || h.Entries < 0 {
		return nil, nil, fmt.Errorf("mmio: negative size line %d %d %d", h.Rows, h.Cols, h.Entries)
	}
	if h.Rows != h.Cols {
		return nil, nil, fmt.Errorf("mmio: rectangular matrix %d×%d not supported", h.Rows, h.Cols)
	}
	pattern := h.Field == "pattern"
	want := 3
	if pattern {
		want = 2
	}
	// The capacity hint is bounded because the entry count is untrusted
	// (the ordering service feeds uploads through this reader): the slice
	// grows only as entry lines actually arrive, so a tiny stream
	// declaring absurd counts cannot force a giant allocation. Symmetric
	// storage expands to at most twice its entries, within the same bound.
	hint := boundedCap(h.Entries)
	if h.Symmetric {
		hint = boundedCap(2 * hint)
	}
	entries := make([]spmat.Coord, 0, hint)
	var f [3][]byte
	read := 0
	for sc.Scan() && read < h.Entries {
		nf, ascii := asciiFields(sc.Bytes(), &f)
		if !ascii {
			nf = unicodeFields(sc.Text(), &f)
		}
		if nf == 0 || f[0][0] == '%' {
			continue
		}
		if nf < want {
			return nil, nil, fmt.Errorf("mmio: malformed entry line %q", strings.TrimSpace(sc.Text()))
		}
		// string(field) does not escape (strconv clones the input into
		// its errors), so a field of up to 32 bytes, which covers every
		// index and every %.17g value, converts on the stack.
		i, err := strconv.Atoi(string(f[0]))
		if err != nil {
			return nil, nil, fmt.Errorf("mmio: bad row index: %v", err)
		}
		j, err := strconv.Atoi(string(f[1]))
		if err != nil {
			return nil, nil, fmt.Errorf("mmio: bad column index: %v", err)
		}
		if i < 1 || i > h.Rows || j < 1 || j > h.Cols {
			return nil, nil, fmt.Errorf("mmio: entry (%d,%d) outside %d×%d", i, j, h.Rows, h.Cols)
		}
		v := 1.0
		if !pattern {
			if v, err = strconv.ParseFloat(string(f[2]), 64); err != nil {
				return nil, nil, fmt.Errorf("mmio: bad value: %v", err)
			}
		}
		entries = append(entries, spmat.Coord{Row: i - 1, Col: j - 1, Val: v})
		if h.Symmetric && i != j {
			entries = append(entries, spmat.Coord{Row: j - 1, Col: i - 1, Val: v})
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("mmio: %w", err)
	}
	if read != h.Entries {
		return nil, nil, fmt.Errorf("mmio: expected %d entries, found %d", h.Entries, read)
	}
	return spmat.FromCoords(h.Rows, entries, pattern), h, nil
}

// asciiSpace marks strings.Fields' ASCII separators.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// asciiFields splits line at asciiSpace the way strings.Fields does,
// storing up to len(f) leading fields in f (subslices of line) and
// returning how many it stored. ascii is false, and f unusable, if the
// line holds a byte >= 0x80: strings.Fields also splits at Unicode spaces
// such as U+0085 and U+00A0, so such a line needs unicodeFields.
func asciiFields(line []byte, f *[3][]byte) (n int, ascii bool) {
	start := -1
	for k, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			return 0, false
		case !asciiSpace[c]:
			if start < 0 {
				start = k
			}
		case start >= 0:
			if n < len(f) {
				f[n] = line[start:k]
				n++
			}
			start = -1
		}
	}
	if start >= 0 && n < len(f) {
		f[n] = line[start:]
		n++
	}
	return n, true
}

// unicodeFields is asciiFields for any line: strings.Fields after
// strings.TrimSpace, copied into f.
func unicodeFields(line string, f *[3][]byte) int {
	fs := strings.Fields(strings.TrimSpace(line))
	n := min(len(fs), len(f))
	for k := 0; k < n; k++ {
		f[k] = []byte(fs[k])
	}
	return n
}

// ReadFile reads a Matrix Market file from disk.
func ReadFile(path string) (*spmat.CSR, *Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return Read(f)
}

// Write emits a in Matrix Market coordinate format. Symmetric patterns are
// written in symmetric (lower-triangular) storage when symmetric is true;
// the caller is responsible for the pattern actually being symmetric.
func Write(w io.Writer, a *spmat.CSR, symmetric bool, comments ...string) error {
	bw := bufio.NewWriter(w)
	field := "real"
	if !a.HasValues() {
		field = "pattern"
	}
	sym := "general"
	if symmetric {
		sym = "symmetric"
	}
	fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate %s %s\n", field, sym)
	for _, c := range comments {
		fmt.Fprintf(bw, "%% %s\n", c)
	}
	count := 0
	for i := 0; i < a.N; i++ {
		for _, j := range a.Row(i) {
			if symmetric && j > i {
				continue
			}
			count++
		}
	}
	fmt.Fprintf(bw, "%d %d %d\n", a.N, a.N, count)
	for i := 0; i < a.N; i++ {
		vals := a.RowVals(i)
		for k, j := range a.Row(i) {
			if symmetric && j > i {
				continue
			}
			if a.HasValues() {
				fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, vals[k])
			} else {
				fmt.Fprintf(bw, "%d %d\n", i+1, j+1)
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes a Matrix Market file to disk.
func WriteFile(path string, a *spmat.CSR, symmetric bool, comments ...string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, a, symmetric, comments...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WritePerm writes a permutation as a one-column text file of 1-based old
// indices in new order, the common exchange format for ordering vectors.
func WritePerm(path string, perm []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, v := range perm {
		fmt.Fprintf(bw, "%d\n", v+1)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadPerm reads a permutation written by WritePerm and validates that the
// file is a true permutation of 1..n (n = number of entries): out-of-range
// ids and duplicates are rejected with the offending line, not passed on to
// corrupt a downstream Permute. An empty file is the empty permutation.
func ReadPerm(path string) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	perm := []int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		v, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("mmio: bad permutation entry %q: %v", line, err)
		}
		perm = append(perm, v-1)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := spmat.ValidatePerm(perm, len(perm)); err != nil {
		return nil, fmt.Errorf("mmio: %s is not a permutation of 1..%d: %v (ids are 1-based)", path, len(perm), err)
	}
	return perm, nil
}
