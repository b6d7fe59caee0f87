package rcm_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/rcm"
)

// TestBinaryIngestDigestLazy pins the digest contract at the facade: a
// matrix arriving through any RCMB ingest path — ReadBinary, the bytes
// decoder at several thread counts, mmap-backed file open — computes its
// digest lazily on the first Digest call, the same digest a freshly built
// Matrix computes, and all ingest paths agree with each other on the
// matrix itself.
func TestBinaryIngestDigestLazy(t *testing.T) {
	entry, err := rcm.SuiteByName("ldoor")
	if err != nil {
		t.Fatal(err)
	}
	m := entry.Build(8)
	var buf bytes.Buffer
	if err := rcm.WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	want := m.Digest() // computed lazily from the in-memory pattern

	fromReader, err := rcm.ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !fromReader.Equal(m) {
		t.Fatal("ReadBinary changed the matrix")
	}
	if got := fromReader.Digest(); got != want {
		t.Errorf("ReadBinary digest %s, want %s", got, want)
	}

	for _, threads := range []int{1, 4, 0} {
		fromBytes, err := rcm.ReadBinaryBytes(buf.Bytes(), threads)
		if err != nil {
			t.Fatal(err)
		}
		if !fromBytes.Equal(m) {
			t.Fatalf("ReadBinaryBytes(threads=%d) changed the matrix", threads)
		}
		if got := fromBytes.Digest(); got != want {
			t.Errorf("ReadBinaryBytes(threads=%d) digest %s, want %s", threads, got, want)
		}
	}

	path := filepath.Join(t.TempDir(), "m.rcmb")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := rcm.OpenBinary(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !fromFile.Equal(m) {
		t.Fatal("OpenBinary changed the matrix")
	}
	if got := fromFile.Digest(); got != want {
		t.Errorf("OpenBinary digest %s, want %s", got, want)
	}
}

// TestOrderWithThreadsMatchesSerial pins that the thread count handed to
// Order, which also sets the budget of its symmetry check and its
// Before/After statistics pass, never changes what Order reports:
// permutation and Stats are byte-identical at threads 1, 4 and 9.
func TestOrderWithThreadsMatchesSerial(t *testing.T) {
	entry, err := rcm.SuiteByName("ldoor")
	if err != nil {
		t.Fatal(err)
	}
	m := entry.Build(8)
	ref, err := rcm.Order(m, rcm.WithBackend(rcm.Shared), rcm.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{4, 9} {
		res, err := rcm.Order(m, rcm.WithBackend(rcm.Shared), rcm.WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Perm {
			if res.Perm[i] != ref.Perm[i] {
				t.Fatalf("threads=%d: permutation differs at %d", threads, i)
			}
		}
		if res.Before != ref.Before || res.After != ref.After {
			t.Errorf("threads=%d: stats differ: before %+v vs %+v, after %+v vs %+v",
				threads, res.Before, ref.Before, res.After, ref.After)
		}
	}
}

// TestOrderMatrixWithThreadsMatchesPermute pins OrderMatrix's PAPᵀ, which
// it builds in row blocks under the thread budget: on the scale-3 ldoor
// analog (3,600 rows, past the 2,048-row gate of the blocked path), at
// threads 1 to 4 with GOMAXPROCS raised so no block count is capped, the
// permuted matrix, values included, equals Matrix.Permute's one-block
// build, and After does not move.
func TestOrderMatrixWithThreadsMatchesPermute(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	entry, err := rcm.SuiteByName("ldoor")
	if err != nil {
		t.Fatal(err)
	}
	m := entry.Build(3)
	if m.N() != 3600 || !m.HasValues() {
		t.Fatalf("fixture: n = %d, values %v; want 3600 rows with values", m.N(), m.HasValues())
	}
	var ref *rcm.Result
	for _, threads := range []int{1, 2, 3, 4} {
		p, res, err := rcm.OrderMatrix(m, rcm.WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Permute(res.Perm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, want) {
			t.Errorf("threads=%d: OrderMatrix's PAPᵀ differs from Matrix.Permute's", threads)
		}
		if ref == nil {
			ref = res
		} else if res.After != ref.After {
			t.Errorf("threads=%d: After = %+v, want %+v", threads, res.After, ref.After)
		}
	}
}
