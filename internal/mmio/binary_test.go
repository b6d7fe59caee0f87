package mmio

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/spmat"
)

// TestBinaryRoundTrip pins WriteBinary ∘ ReadBinaryDigest as the identity on
// pattern and valued matrices, including empty and disconnected ones.
func TestBinaryRoundTrip(t *testing.T) {
	mats := map[string]*spmat.CSR{
		"grid":         graphgen.Grid2D(13, 7),
		"rmat":         graphgen.RMAT(7, 6, 3),
		"disconnected": graphgen.Disconnected(graphgen.Path(5), graphgen.Star(9)),
		"empty":        spmat.FromCoords(0, nil, true),
		"pattern": spmat.FromCoords(4, []spmat.Coord{
			{Row: 0, Col: 3, Val: 1}, {Row: 3, Col: 0, Val: 1}, {Row: 2, Col: 2, Val: 1},
		}, true),
	}
	scrambled, _ := graphgen.Scramble(graphgen.Grid3D(5, 4, 3, 1, true), 11)
	mats["scrambled"] = scrambled
	for name, a := range mats {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, a); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, _, err := ReadBinaryDigest(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Errorf("%s: round trip changed the matrix", name)
		}
	}
}

// TestBinaryCompact asserts the format's point: a banded matrix costs a few
// bytes per entry, well under its Matrix Market text size.
func TestBinaryCompact(t *testing.T) {
	g := graphgen.Grid2D(40, 40)
	a := &spmat.CSR{N: g.N, RowPtr: g.RowPtr, Col: g.Col} // pattern only
	var bin, txt bytes.Buffer
	if err := WriteBinary(&bin, a); err != nil {
		t.Fatal(err)
	}
	if err := Write(&txt, a, false); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= txt.Len()/3 {
		t.Errorf("binary %dB not well under text %dB", bin.Len(), txt.Len())
	}
	if perEntry := float64(bin.Len()) / float64(a.NNZ()); perEntry > 4 {
		t.Errorf("%.1f bytes per entry, want <= 4 on a banded pattern", perEntry)
	}
}

// TestBinaryMalformed feeds truncations and corruptions to the reader and
// requires descriptive errors, never a panic or a silent success.
func TestBinaryMalformed(t *testing.T) {
	var good bytes.Buffer
	if err := WriteBinary(&good, graphgen.Path(6)); err != nil {
		t.Fatal(err)
	}
	raw := good.Bytes()
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("NOPE"), raw[4:]...),
		"bad version": append(append([]byte("RCMB"), 9), raw[5:]...),
		"bad flags":   append(append([]byte("RCMB"), 1, 0x80), raw[6:]...),
		"truncated":   raw[:len(raw)-3],
	}
	for name, data := range cases {
		if _, _, err := ReadBinaryDigest(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.HasPrefix(err.Error(), "mmio:") {
			t.Errorf("%s: undiagnosed error %v", name, err)
		}
	}
	// A stream whose row lengths disagree with the declared nnz.
	bad := []byte{'R', 'C', 'M', 'B', 1, 0, 2, 3, 1, 1}
	if _, _, err := ReadBinaryDigest(bytes.NewReader(bad)); err == nil {
		t.Error("mismatched row lengths accepted")
	}
}

// TestBinaryGiantHeader: a tiny stream declaring a huge matrix must fail
// on the missing data, not balloon memory first — allocation is driven by
// received bytes, so this returns quickly and cheaply (the service decodes
// untrusted uploads through this reader).
func TestBinaryGiantHeader(t *testing.T) {
	var hdr bytes.Buffer
	hdr.WriteString("RCMB")
	hdr.Write([]byte{1, 0})
	var buf [binary.MaxVarintLen64]byte
	hdr.Write(buf[:binary.PutUvarint(buf[:], 1<<30)])     // n = 2^30
	hdr.Write(buf[:binary.PutUvarint(buf[:], 1<<59)])     // nnz ≈ n²/2
	hdr.Write(buf[:binary.PutUvarint(buf[:], (1<<30)-1)]) // one row length, then EOF
	if _, _, err := ReadBinaryDigest(bytes.NewReader(hdr.Bytes())); err == nil {
		t.Fatal("giant header with no data accepted")
	}
}
