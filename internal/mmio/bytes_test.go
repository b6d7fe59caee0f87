package mmio

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/spmat"
)

// forceParallelDecode lowers the fan-out gate so small fixtures exercise
// the extent splitter and the worker-pool decode, restoring it afterwards.
func forceParallelDecode(t *testing.T) {
	t.Helper()
	old := minParallelDecode
	minParallelDecode = 1
	t.Cleanup(func() { minParallelDecode = old })
}

// testMatrices is the shared corpus for the reader-equivalence sweeps.
func testMatrices() map[string]*spmat.CSR {
	mats := map[string]*spmat.CSR{
		"grid":         graphgen.Grid2D(13, 7),
		"rmat":         graphgen.RMAT(7, 6, 3),
		"disconnected": graphgen.Disconnected(graphgen.Path(5), graphgen.Star(9)),
		"empty":        spmat.FromCoords(0, nil, true),
		"single":       spmat.FromCoords(1, []spmat.Coord{{Row: 0, Col: 0, Val: 2}}, false),
		"pattern": spmat.FromCoords(4, []spmat.Coord{
			{Row: 0, Col: 3, Val: 1}, {Row: 3, Col: 0, Val: 1}, {Row: 2, Col: 2, Val: 1},
		}, true),
	}
	scrambled, _ := graphgen.Scramble(graphgen.Grid3D(5, 4, 3, 1, true), 11)
	mats["scrambled"] = scrambled
	return mats
}

// TestReadBinaryBytesMatchesReader pins the zero-copy decoder against the
// streaming reader: identical matrices at every thread count, and the fused
// digest identical to the canonical one-shot spmat.PatternDigest.
func TestReadBinaryBytesMatchesReader(t *testing.T) {
	forceParallelDecode(t)
	for name, a := range testMatrices() {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, a); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		want, _, err := ReadBinaryDigest(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: reader: %v", name, err)
		}
		for _, threads := range []int{1, 2, 4, 9} {
			got, digest, err := ReadBinaryBytesDigest(buf.Bytes(), threads)
			if err != nil {
				t.Fatalf("%s threads=%d: bytes: %v", name, threads, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s threads=%d: bytes decode differs from reader", name, threads)
			}
			if canon := spmat.PatternDigest(want); digest != canon {
				t.Errorf("%s threads=%d: fused digest %s != canonical %s", name, threads, digest, canon)
			}
		}
	}
}

// TestReadBinaryDigestFused pins the streaming fused-digest reader: the
// matrix written comes back, with the canonical digest.
func TestReadBinaryDigestFused(t *testing.T) {
	for name, a := range testMatrices() {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, a); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, digest, err := ReadBinaryDigest(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Errorf("%s: fused reader changed the matrix", name)
		}
		if canon := spmat.PatternDigest(a); digest != canon {
			t.Errorf("%s: fused digest %s != canonical %s", name, digest, canon)
		}
	}
}

// TestReadBinaryBytesMalformed requires the bytes decoder to reject exactly
// what the streaming reader rejects, with mmio-diagnosed errors and no
// panic — including corruption inside the parallel column section.
func TestReadBinaryBytesMalformed(t *testing.T) {
	forceParallelDecode(t)
	var good bytes.Buffer
	if err := WriteBinary(&good, graphgen.Path(6)); err != nil {
		t.Fatal(err)
	}
	raw := good.Bytes()
	overlong := append(append([]byte{}, raw...), 0)
	cases := map[string][]byte{
		"empty":        {},
		"header only":  raw[:6],
		"bad magic":    append([]byte("NOPE"), raw[4:]...),
		"bad version":  append(append([]byte("RCMB"), 9), raw[5:]...),
		"bad flags":    append(append([]byte("RCMB"), 1, 0x80), raw[6:]...),
		"truncated":    raw[:len(raw)-3],
		"row mismatch": {'R', 'C', 'M', 'B', 1, 0, 2, 3, 1, 1},
	}
	for name, data := range cases {
		for _, threads := range []int{1, 4} {
			_, errB := ReadBinaryBytes(data, threads)
			if errB == nil {
				t.Errorf("%s threads=%d: accepted", name, threads)
			} else if !strings.HasPrefix(errB.Error(), "mmio:") {
				t.Errorf("%s threads=%d: undiagnosed error %v", name, threads, errB)
			}
			if _, _, errR := ReadBinaryDigest(bytes.NewReader(data)); (errR == nil) != (errB == nil) {
				t.Errorf("%s: decoders disagree: reader=%v bytes=%v", name, errR, errB)
			}
		}
	}
	// Trailing bytes after a complete stream are ignored by both decoders.
	if _, err := ReadBinaryBytes(overlong, 4); err != nil {
		t.Errorf("trailing byte rejected: %v", err)
	}
	if _, _, err := ReadBinaryDigest(bytes.NewReader(overlong)); err != nil {
		t.Errorf("reader rejected trailing byte: %v", err)
	}
}

// TestOpenBinary pins the mmap-backed file path: the same matrix as the
// in-memory decoders, and a clean error on a missing file.
func TestOpenBinary(t *testing.T) {
	dir := t.TempDir()
	for name, a := range testMatrices() {
		path := filepath.Join(dir, name+".rcmb")
		var buf bytes.Buffer
		if err := WriteBinary(&buf, a); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := OpenBinary(path, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Errorf("%s: OpenBinary changed the matrix", name)
		}
	}
	if _, err := OpenBinary(filepath.Join(dir, "absent.rcmb"), 1); err == nil {
		t.Error("missing file accepted")
	}
}
