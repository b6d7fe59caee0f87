package mmio

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graphgen"
	"repro/internal/spmat"
)

// forceParallelDecode lowers the fan-out gate so small fixtures exercise
// the extent splitter and the worker-pool decode, restoring it afterwards.
func forceParallelDecode(t testing.TB) {
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

// withValues returns a with seeded values on its pattern, and withoutValues
// returns its pattern alone, so every image is decoded in both forms.
func withValues(a *spmat.CSR, seed int64) *spmat.CSR {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, a.NNZ())
	for k := range v {
		v[k] = rng.NormFloat64()
	}
	return &spmat.CSR{N: a.N, RowPtr: a.RowPtr, Col: a.Col, Val: v}
}

func withoutValues(a *spmat.CSR) *spmat.CSR {
	return &spmat.CSR{N: a.N, RowPtr: a.RowPtr, Col: a.Col}
}

// TestReadBinaryBytesMatchesReader pins the zero-copy decoder against the
// streaming oracle refReadBinary: identical matrices at every thread count,
// on every image with and without values, and ReadBinaryBytesDigest's
// digest identical to the canonical spmat.PatternDigest.
func TestReadBinaryBytesMatchesReader(t *testing.T) {
	forceParallelDecode(t)
	for name, m := range testMatrices() {
		for form, a := range map[string]*spmat.CSR{"pattern": withoutValues(m), "values": withValues(m, int64(m.N))} {
			var buf bytes.Buffer
			if err := WriteBinary(&buf, a); err != nil {
				t.Fatalf("%s %s: write: %v", name, form, err)
			}
			want, _, err := refReadBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s %s: oracle: %v", name, form, err)
			}
			for _, threads := range []int{1, 2, 3, 4, 9} {
				got, digest, err := ReadBinaryBytesDigest(buf.Bytes(), threads)
				if err != nil {
					t.Fatalf("%s %s threads=%d: bytes: %v", name, form, threads, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s threads=%d: bytes decode differs from oracle", name, form, threads)
				}
				if canon := spmat.PatternDigest(want); digest != canon {
					t.Errorf("%s %s threads=%d: digest %s != canonical %s", name, form, threads, digest, canon)
				}
			}
		}
	}
}

// refSplitVarints is the byte-at-a-time extent splitter the word-at-a-time
// one replaced, kept as its oracle: it skips each varint's continuation
// bytes and its terminator in turn.
func refSplitVarints(buf []byte, off int, cuts []int) ([]int, int, error) {
	offs := make([]int, len(cuts))
	ci, cnt, p := 0, 0, off
	for ci < len(cuts) && cuts[ci] == cnt {
		offs[ci] = p
		ci++
	}
	for ci < len(cuts) {
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

// TestQuickSplitVarints holds the word-at-a-time splitter to the
// byte-at-a-time oracle: random varints of 1–10 bytes after a random
// prefix, random trailing bytes, cut sets holding 0, the total, repeated
// cuts and the varints that start on a word boundary, and the same streams
// truncated at every length from mid-varint to mid-word, where both must
// fail with the same text, entry index included.
func TestQuickSplitVarints(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		off := r.Intn(9)
		buf := make([]byte, off)
		r.Read(buf)
		total := r.Intn(40)
		var starts []int
		for v := 0; v < total; v++ {
			starts = append(starts, len(buf))
			for l := r.Intn(10); l > 0; l-- {
				buf = append(buf, 0x80|byte(r.Intn(128)))
			}
			buf = append(buf, byte(r.Intn(128)))
		}
		end := len(buf)
		for k := r.Intn(12); k > 0; k-- {
			buf = append(buf, byte(r.Intn(256)))
		}
		cuts := []int{0, total}
		for v, st := range starts {
			if (st-off)%8 == 0 || r.Intn(4) == 0 {
				cuts = append(cuts, v, v)
			}
		}
		sort.Ints(cuts)
		// Where each cut's varint starts, as the stream was built.
		want := make([]int, len(cuts))
		for k, c := range cuts {
			want[k] = end
			if c < total {
				want[k] = starts[c]
			}
		}
		gotOffs, gotEnd, gotErr := splitVarints(buf, off, cuts)
		refOffs, _, refErr := refSplitVarints(buf, off, cuts)
		if gotErr != nil || refErr != nil || gotEnd != end || !reflect.DeepEqual(gotOffs, want) || !reflect.DeepEqual(refOffs, want) {
			t.Logf("seed %d: got %v %d %v, oracle %v %v, built %v", seed, gotOffs, gotEnd, gotErr, refOffs, refErr, want)
			return false
		}
		for cut := off; cut < end; cut++ {
			gotOffs, gotEnd, gotErr := splitVarints(buf[:cut], off, cuts)
			wantOffs, wantEnd, wantErr := refSplitVarints(buf[:cut], off, cuts)
			if (gotErr == nil) != (wantErr == nil) || gotEnd != wantEnd || !reflect.DeepEqual(gotOffs, wantOffs) {
				t.Logf("seed %d, %d bytes: got %v %d %v, want %v %d %v", seed, cut, gotOffs, gotEnd, gotErr, wantOffs, wantEnd, wantErr)
				return false
			}
			if gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Logf("seed %d, %d bytes: error %q, want %q", seed, cut, gotErr, wantErr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Error(err)
	}
}

// TestRefReadBinaryRoundTrip pins the oracle itself: the matrix written
// comes back, with the canonical digest.
func TestRefReadBinaryRoundTrip(t *testing.T) {
	for name, a := range testMatrices() {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, a); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, digest, err := refReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Errorf("%s: oracle changed the matrix", name)
		}
		if canon := spmat.PatternDigest(a); digest != canon {
			t.Errorf("%s: oracle digest %s != canonical %s", name, digest, canon)
		}
	}
}

// TestReadBinaryBytesMalformed requires the bytes decoder to reject exactly
// what the streaming oracle rejects, with mmio-diagnosed errors and no
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
			if _, _, errR := refReadBinary(bytes.NewReader(data)); (errR == nil) != (errB == nil) {
				t.Errorf("%s: decoders disagree: oracle=%v bytes=%v", name, errR, errB)
			}
		}
	}
	// Trailing bytes after a complete stream are ignored by both decoders.
	if _, err := ReadBinaryBytes(overlong, 4); err != nil {
		t.Errorf("trailing byte rejected: %v", err)
	}
	if _, _, err := refReadBinary(bytes.NewReader(overlong)); err != nil {
		t.Errorf("oracle rejected trailing byte: %v", err)
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
