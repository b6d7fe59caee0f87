package rcm_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/rcm"
	"repro/rcm/rcmtest"
)

// matrixFromFuzz decodes fuzz bytes into a small symmetric pattern: the
// first byte picks the dimension (1..48), every following byte pair is a
// mirrored edge. Vertices no pair mentions stay isolated, so disconnected
// inputs — the component scheduler's domain — arise naturally.
func matrixFromFuzz(data []byte) *rcm.Matrix {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0])%48 + 1
	var edges []rcm.Edge
	for i := 1; i+1 < len(data) && len(edges) < 800; i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		edges = append(edges, rcm.Edge{I: u, J: v, Val: 1}, rcm.Edge{I: v, J: u, Val: 1})
	}
	m, err := rcm.FromEdges(n, edges, true)
	if err != nil {
		return nil
	}
	return m
}

// FuzzOrderDeterminism is the deterministic contract as a fuzz property,
// across ordering families: on ANY small symmetric matrix — connected or
// not — every RCM backend, with and without component scheduling, returns
// the byte-identical valid permutation; AMD and Sloan each return their own
// byte-identical valid permutation at thread counts 1, 2, 4 and 9; and
// every Result satisfies the rcmtest invariants.
func FuzzOrderDeterminism(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 3, 4})                                         // path + edge + isolated
	f.Add([]byte{1})                                                           // single vertex
	f.Add([]byte{48})                                                          // all isolated
	f.Add([]byte{16, 0, 1, 2, 3, 4, 5, 6, 7})                                  // four disjoint edges + dust
	f.Add([]byte{9, 0, 0, 1, 1, 2, 2})                                         // self-loops only
	f.Add([]byte{32, 0, 1, 1, 2, 2, 0, 9, 10, 10, 11, 20, 21, 21, 22, 22, 20}) // two triangles + dust
	f.Fuzz(func(t *testing.T, data []byte) {
		m := matrixFromFuzz(data)
		if m == nil {
			t.Skip()
		}
		ref, err := rcm.Order(m)
		if err != nil {
			t.Fatalf("sequential order failed on a valid matrix: %v", err)
		}
		rcmtest.CheckResult(t, m, ref)
		variants := [][]rcm.Option{
			{rcm.WithComponentScheduling(0)},
			{rcm.WithComponentScheduling(4)},
			{rcm.WithBackend(rcm.Algebraic)},
			{rcm.WithBackend(rcm.Algebraic), rcm.WithComponentScheduling(4)},
			{rcm.WithBackend(rcm.Shared), rcm.WithThreads(3)},
			{rcm.WithBackend(rcm.Shared), rcm.WithThreads(3), rcm.WithComponentScheduling(4)},
			{rcm.WithBackend(rcm.Distributed), rcm.WithProcs(4)},
			{rcm.WithBackend(rcm.Distributed), rcm.WithProcs(4), rcm.WithComponentScheduling(4)},
		}
		for i, opts := range variants {
			res, err := rcm.Order(m, opts...)
			if err != nil {
				t.Fatalf("variant %d failed: %v", i, err)
			}
			if !reflect.DeepEqual(res.Perm, ref.Perm) {
				t.Fatalf("variant %d permutation differs from sequential", i)
			}
			rcmtest.CheckResult(t, m, res)
		}
		// The non-RCM families: each is its own determinism class — a fixed
		// permutation per input, byte-identical at every thread count (Sloan
		// ignores threads; AMD's multiple elimination must not let the
		// worker count leak into the output).
		for _, ord := range []rcm.Ordering{rcm.AMD, rcm.Sloan} {
			famRef, err := rcm.Order(m, rcm.WithOrdering(ord))
			if err != nil {
				t.Fatalf("%v order failed on a valid matrix: %v", ord, err)
			}
			if famRef.Ordering != ord {
				t.Fatalf("%v result reports ordering %v", ord, famRef.Ordering)
			}
			rcmtest.CheckResult(t, m, famRef)
			for _, threads := range []int{2, 4, 9} {
				res, err := rcm.Order(m, rcm.WithOrdering(ord), rcm.WithThreads(threads))
				if err != nil {
					t.Fatalf("%v threads=%d failed: %v", ord, threads, err)
				}
				if !reflect.DeepEqual(res.Perm, famRef.Perm) {
					t.Fatalf("%v permutation differs at threads=%d", ord, threads)
				}
				rcmtest.CheckResult(t, m, res)
			}
		}
	})
}

// FuzzReadBinary feeds arbitrary bytes to the facade's RCMB ingest through
// ReadBinary (one thread) and ReadBinaryBytes (four): each must reject or
// accept, never panic, never allocate unboundedly from a hostile header,
// and they must agree — same verdict on every input and, on accept, the
// same matrix and the same digest. Accepted matrices must round-trip.
// internal/mmio's FuzzReadBinaryBytes holds the decoder to its streaming
// oracle at every block split.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := rcm.WriteBinary(&seed, rcm.Path(6)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("RCMB"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := rcm.ReadBinary(bytes.NewReader(data))
		mb, errB := rcm.ReadBinaryBytes(data, 4)
		if (err == nil) != (errB == nil) {
			t.Fatalf("ingest paths disagree: ReadBinary=%v ReadBinaryBytes=%v", err, errB)
		}
		if err != nil {
			return
		}
		if !mb.Equal(m) {
			t.Fatal("ReadBinaryBytes returned a different matrix")
		}
		if mb.Digest() != m.Digest() {
			t.Fatalf("digest mismatch: ReadBinary %s, ReadBinaryBytes %s", m.Digest(), mb.Digest())
		}
		var out bytes.Buffer
		if err := rcm.WriteBinary(&out, m); err != nil {
			t.Fatalf("accepted matrix does not re-encode: %v", err)
		}
		back, err := rcm.ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-encoded matrix does not decode: %v", err)
		}
		if !back.Equal(m) {
			t.Fatal("binary round-trip changed the matrix")
		}
	})
}

// FuzzReadMatrixMarket feeds arbitrary text to the Matrix Market decoder:
// reject or accept, never panic.
func FuzzReadMatrixMarket(f *testing.F) {
	var seed bytes.Buffer
	if err := rcm.WriteMatrixMarket(&seed, rcm.Path(5), true); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 1.0\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n-1 -1 -1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, _, err := rcm.ReadMatrixMarket(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m.N() < 0 || m.NNZ() < 0 {
			t.Fatalf("accepted matrix has negative shape: n=%d nnz=%d", m.N(), m.NNZ())
		}
	})
}
