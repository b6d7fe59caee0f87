package mmio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/spmat"
)

// readOracle is Read as it was before the allocation-free entry path,
// kept verbatim as the differential oracle: a 1 MiB scanner buffer, and
// every entry line through Text, TrimSpace and Fields.
func readOracle(r io.Reader) (*spmat.CSR, *Header, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
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
	// The capacity hint is bounded because the entry count is untrusted
	// (the ordering service feeds uploads through this reader): the slice
	// grows only as entry lines actually arrive, so a tiny stream
	// declaring absurd counts cannot force a giant allocation.
	entries := make([]spmat.Coord, 0, boundedCap(h.Entries))
	read := 0
	for sc.Scan() && read < h.Entries {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		want := 3
		if pattern {
			want = 2
		}
		if len(f) < want {
			return nil, nil, fmt.Errorf("mmio: malformed entry line %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, nil, fmt.Errorf("mmio: bad row index: %v", err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, nil, fmt.Errorf("mmio: bad column index: %v", err)
		}
		if i < 1 || i > h.Rows || j < 1 || j > h.Cols {
			return nil, nil, fmt.Errorf("mmio: entry (%d,%d) outside %d×%d", i, j, h.Rows, h.Cols)
		}
		v := 1.0
		if !pattern {
			if v, err = strconv.ParseFloat(f[2], 64); err != nil {
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

// readSeeds are the differential corpus: the separators, line shapes and
// tokens where an ASCII field scanner could part ways with TrimSpace and
// Fields, plus the orders that do or do not reach FromCoords' sort.
func readSeeds() []string {
	const gen = "%%MatrixMarket matrix coordinate real general\n"
	const sym = "%%MatrixMarket matrix coordinate real symmetric\n"
	long := strings.Repeat("7", scanBufInit+100)
	var canon bytes.Buffer
	a := spmat.FromCoords(4, []spmat.Coord{
		{Row: 0, Col: 0, Val: 2}, {Row: 1, Col: 0, Val: -1.25}, {Row: 0, Col: 1, Val: -1.25},
		{Row: 3, Col: 1, Val: 1e-300}, {Row: 1, Col: 3, Val: 1e-300}, {Row: 2, Col: 2, Val: 0.1},
	}, false)
	if err := Write(&canon, a, true, "written by Write"); err != nil {
		panic(err)
	}
	return []string{
		canon.String(),
		"",
		"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n",
		"%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 7\n2 1 -7\n",
		// CRLF line endings, banner included.
		"%%MatrixMarket matrix coordinate real general\r\n% c\r\n3 3 3\r\n1 1 1.5\r\n2 1 -2\r\n3 3 4e-3\r\n",
		// Tab, vertical-tab and form-feed separators; whitespace-only lines.
		gen + "3 3 3\n1\t1\t1.0\n2\v1\v2.0\n \t\v\f\r\n3\f3\f3.0\n",
		// Blank and comment lines between entries, some indented.
		gen + "3 3 2\n\n1 1 1\n% mid\n   \n \t% indented\n2 2 2\n",
		// Extra trailing fields.
		gen + "2 2 2\n1 1 1.0 extra 7\n2 2 2.0\t9 9 9\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 1 0.5 trailing\n",
		// Signed, zero-padded, hex-float, inf and nan tokens.
		gen + "8 8 5\n+1 007 0x1p-2\n2 +2 inf\n3 3 nan\n4 4 -Inf\n5 5 +0x1.8p1\n",
		gen + "8 8 1\n-1 1 1\n",
		gen + "8 8 1\n1 1 1_000\n",
		// Unicode separators: NBSP and NEL split fields and trim lines.
		gen + "3 3 3\n1 1 1.0\n2\u00852 2.0\n3 3 3.0 \n",
		gen + "2 2 1\n % nbsp-indented comment\n\u00851 1 1\n",
		// A lone 0x85 or 0xa0 byte is invalid UTF-8, not a separator.
		gen + "2 2 1\n1\x851 1\n",
		gen + "2 2 1\n1 1 1\xa0\n",
		// Three and four copies of one entry, unsorted around them.
		gen + "3 3 7\n2 1 1.0\n2 1 2.0\n3 3 5\n2 1 3.0\n1 2 0.5\n2 1 4.0\n2 1 1e16\n",
		sym + "3 3 4\n2 1 0.1\n2 1 0.2\n2 1 0.3\n3 3 1\n",
		// Unsorted lines, and column-major lines (SuiteSparse's order).
		gen + "4 4 5\n3 3 1\n1 4 2\n4 1 3\n1 1 4\n2 3 5\n",
		sym + "4 4 6\n1 1 1\n2 1 2\n4 1 3\n2 2 4\n3 2 5\n4 4 6\n",
		// Final line without a newline.
		gen + "2 2 2\n1 1 1.0\n2 2 2.0",
		// Lines longer than the scanner's initial 64 KiB buffer.
		gen + "% " + long + "\n2 2 1\n1 1 1\n",
		gen + "2 2 1\n1 1 1.0 " + long + "\n",
		gen + "2 2 1\n1 1 0." + long + "\n",
		gen + "2 2 1\n1 " + long + " 1\n",
		// Declared entry count above the lines present, and below.
		gen + "3 3 5\n1 1 1\n2 2 2\n",
		gen + "3 3 1\n1 1 1\n2 2 2\nnot an entry\n",
		// Malformed entries; the error quotes the trimmed line.
		gen + "2 2 1\n1 1\n",
		gen + "2 2 1\n \t1 1 \v\n",
		gen + "2 2 1\n\u00a01 1\u0085\n",
		gen + "2 2 1\nx 1 1.0\n",
		gen + "2 2 1\n1 y 1.0\n",
		gen + "2 2 1\n1 1 zz\n",
		gen + "2 2 1\n3 1 1.0\n",
		gen + "2 2 1\n99999999999999999999 1 1.0\n",
		// Malformed headers.
		"%%MatrixMarket matrix array real general\n2 2 1\n",
		"%%MatrixMarket matrix coordinate complex general\n2 2 0\n",
		gen + "2 3 0\n",
		gen + "-1 -1 -1\n",
		gen + "2 2\n",
		gen + "% only comments\n",
	}
}

// maxFuzzRows bounds the dimension the fuzz target feeds both readers:
// Read allocates O(n) row pointers for whatever the size line declares,
// which is a property of the shared CSR build, not of the field scanning
// under test, and a mutated size line would otherwise ask for gigabytes.
const maxFuzzRows = 1 << 20

// declaredRows finds the size line the way Read does and returns its row
// count, or 0 if there is none or it does not parse.
func declaredRows(data []byte) int {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, scanBufInit), scanBufMax)
	if !sc.Scan() {
		return 0
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if f := strings.Fields(line); len(f) == 3 {
			n, _ := strconv.Atoi(f[0])
			return n
		}
		return 0
	}
	return 0
}

// checkReadMatchesOracle requires Read and readOracle to agree on data:
// the same verdict with the same error string, and on accept the same
// Header and the same CSR, values compared bit for bit (DeepEqual would
// call two NaNs different).
func checkReadMatchesOracle(t *testing.T, data []byte) {
	t.Helper()
	a, h, err := Read(bytes.NewReader(data))
	wa, wh, werr := readOracle(bytes.NewReader(data))
	if (err == nil) != (werr == nil) {
		t.Fatalf("verdicts differ: Read err=%v, oracle err=%v", err, werr)
	}
	if err != nil {
		if err.Error() != werr.Error() {
			t.Fatalf("error strings differ:\n  Read   %q\n  oracle %q", err, werr)
		}
		return
	}
	if !reflect.DeepEqual(h, wh) {
		t.Fatalf("headers differ:\n  Read   %+v\n  oracle %+v", h, wh)
	}
	if a.N != wa.N || !reflect.DeepEqual(a.RowPtr, wa.RowPtr) || !reflect.DeepEqual(a.Col, wa.Col) {
		t.Fatalf("patterns differ:\n  Read   %+v\n  oracle %+v", a, wa)
	}
	if (a.Val == nil) != (wa.Val == nil) || len(a.Val) != len(wa.Val) {
		t.Fatalf("values differ in shape: Read %v, oracle %v", a.Val, wa.Val)
	}
	for k := range a.Val {
		if math.Float64bits(a.Val[k]) != math.Float64bits(wa.Val[k]) {
			t.Fatalf("value %d differs: Read %v, oracle %v", k, a.Val[k], wa.Val[k])
		}
	}
}

// FuzzReadMatchesOracle: Read must be indistinguishable from the reader it
// replaced on every input — verdict, error string, Header and CSR.
func FuzzReadMatchesOracle(f *testing.F) {
	for _, s := range readSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if declaredRows(data) > maxFuzzRows {
			t.Skip("size line declares more rows than the harness allocates")
		}
		checkReadMatchesOracle(t, data)
	})
}

// TestReadLineLimitMatchesOracle: the scanner now starts at 64 KiB instead
// of 1 MiB but still doubles to the same 16 MiB, so an entry line that just
// fits (newline included) and one a byte longer get the oracle's verdicts.
func TestReadLineLimitMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 16 MiB lines")
	}
	const prefix = "%%MatrixMarket matrix coordinate real general\n2 2 1\n"
	for _, c := range []struct {
		length  int
		tooLong bool
	}{{scanBufMax - 1, false}, {scanBufMax, true}} {
		data := []byte(prefix + "1 1 1 " + strings.Repeat("x", c.length-len("1 1 1 ")) + "\n")
		checkReadMatchesOracle(t, data)
		if _, _, err := Read(bytes.NewReader(data)); errors.Is(err, bufio.ErrTooLong) != c.tooLong {
			t.Errorf("%d-byte line: err = %v, want too long = %v", c.length, err, c.tooLong)
		}
	}
}

// refReadBinary is the streaming RCMB reader ReadBinaryBytes replaced in
// production, kept as its differential oracle. It decodes through a
// bufio.Reader one uvarint at a time into arrays that grow with the bytes
// actually received — every element costs at least one stream byte, so a
// malicious header cannot force a large allocation the body never backs —
// and returns the canonical pattern digest of what it decoded. It has no
// block split, so its verdict cannot depend on one.
func refReadBinary(r io.Reader) (*spmat.CSR, string, error) {
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
	return a, spmat.PatternDigest(a), nil
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

// FuzzReadBinaryBytes holds the bytes decoder to refReadBinary with the
// fan-out gate forced to one entry, so every input with two or more stored
// entries reaches the varint split, the per-block value conversion and the
// lowest-block-first error order: at threads 1 to 4, ReadBinaryBytesDigest
// must give the oracle's verdict on every input and, on accept, its arrays,
// values bit for bit (DeepEqual would call two NaNs different), and digest.
func FuzzReadBinaryBytes(f *testing.F) {
	forceParallelDecode(f)
	for _, m := range testMatrices() {
		for _, a := range []*spmat.CSR{withoutValues(m), withValues(m, int64(m.N))} {
			var buf bytes.Buffer
			if err := WriteBinary(&buf, a); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantDigest, wantErr := refReadBinary(bytes.NewReader(data))
		for threads := 1; threads <= 4; threads++ {
			a, digest, err := ReadBinaryBytesDigest(data, threads)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("threads=%d: verdicts differ: bytes err=%v, oracle err=%v", threads, err, wantErr)
			}
			if err != nil {
				continue
			}
			if a.N != want.N || !reflect.DeepEqual(a.RowPtr, want.RowPtr) || !reflect.DeepEqual(a.Col, want.Col) {
				t.Fatalf("threads=%d: patterns differ:\n  bytes  %+v\n  oracle %+v", threads, a, want)
			}
			if (a.Val == nil) != (want.Val == nil) || len(a.Val) != len(want.Val) {
				t.Fatalf("threads=%d: values differ in shape: bytes %v, oracle %v", threads, a.Val, want.Val)
			}
			for k := range a.Val {
				if math.Float64bits(a.Val[k]) != math.Float64bits(want.Val[k]) {
					t.Fatalf("threads=%d: value %d differs: bytes %v, oracle %v", threads, k, a.Val[k], want.Val[k])
				}
			}
			if digest != wantDigest {
				t.Fatalf("threads=%d: digest %s, oracle %s", threads, digest, wantDigest)
			}
		}
	})
}
