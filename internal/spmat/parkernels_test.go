package spmat

import (
	"math/rand"
	"reflect"
	"testing"
)

// randSym builds a random symmetric pattern (optionally with values) for the
// kernel equivalence sweeps.
func randSymK(n, edges int, vals bool, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	var coords []Coord
	for e := 0; e < edges; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		v := rng.Float64()
		coords = append(coords, Coord{i, j, v}, Coord{j, i, v})
	}
	for i := 0; i < n; i += 3 {
		coords = append(coords, Coord{i, i, 1})
	}
	return FromCoords(n, coords, !vals)
}

// forceParallel lowers the fan-out gate so small fixtures exercise the
// parallel code paths, restoring it afterwards.
func forceParallel(t *testing.T) {
	t.Helper()
	old := minParallelRows
	minParallelRows = 1
	t.Cleanup(func() { minParallelRows = old })
}

// TestParallelKernelsMatchSerial pins the contract of the ingest-and-permute
// kernels: at every thread count, Permute/Bandwidth/Profile/Wavefront over
// row blocks produce the byte-identical result of the serial methods, on
// patterns with and without values, dense stripes, empty rows and the empty
// matrix.
func TestParallelKernelsMatchSerial(t *testing.T) {
	forceParallel(t)
	mats := map[string]*CSR{
		"random-pattern": randSymK(257, 900, false, 1),
		"random-values":  randSymK(180, 700, true, 2),
		"empty":          {N: 0, RowPtr: []int{0}},
		"diag-only":      FromCoords(5, []Coord{{0, 0, 1}, {1, 1, 1}, {2, 2, 1}, {3, 3, 1}, {4, 4, 1}}, true),
		"isolated-rows":  FromCoords(64, []Coord{{0, 63, 1}, {63, 0, 1}}, true),
	}
	// A dense stripe: one hub row to stress the weighted partitioner.
	var hub []Coord
	for j := 0; j < 150; j++ {
		hub = append(hub, Coord{0, j, 1}, Coord{j, 0, 1})
	}
	mats["hub"] = FromCoords(150, hub, true)

	for name, a := range mats {
		for _, threads := range []int{1, 2, 4, 9} {
			perm := rand.New(rand.NewSource(int64(a.N))).Perm(a.N)
			wantP := a.Permute(perm)
			gotP := a.PermutePar(perm, threads)
			if !reflect.DeepEqual(wantP, gotP) {
				t.Errorf("%s threads=%d: PermutePar differs from Permute", name, threads)
			}
			if got, want := a.BandwidthPar(threads), a.Bandwidth(); got != want {
				t.Errorf("%s threads=%d: BandwidthPar = %d, want %d", name, threads, got, want)
			}
			if got, want := a.ProfilePar(threads), a.Profile(); got != want {
				t.Errorf("%s threads=%d: ProfilePar = %d, want %d", name, threads, got, want)
			}
			if got, want := a.WavefrontPar(threads), a.Wavefront(); got != want {
				t.Errorf("%s threads=%d: WavefrontPar = %+v, want %+v", name, threads, got, want)
			}
		}
	}
}

// TestPermuteParValidates pins that the parallel path rejects malformed
// permutations exactly like the serial one: with a panic carrying the
// ValidatePerm diagnosis.
func TestPermuteParValidates(t *testing.T) {
	forceParallel(t)
	a := randSymK(64, 100, false, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("PermutePar accepted a duplicate-entry permutation")
		}
	}()
	bad := make([]int, a.N)
	a.PermutePar(bad, 4) // all zeros: duplicates
}

// TestBlocksPartition pins the partitioner invariants: boundaries cover
// [0, n) exactly, are monotone, and never exceed the thread count.
func TestBlocksPartition(t *testing.T) {
	for _, tc := range []struct{ n, threads int }{
		{0, 4}, {1, 4}, {5, 2}, {100, 7}, {100, 1}, {3, 100}, {17, 0},
	} {
		b := Blocks(tc.n, tc.threads)
		checkBounds(t, b, tc.n, tc.threads, "Blocks")
	}
	// Weighted: a hub row holding almost all weight.
	ptr := []int{0, 90, 91, 92, 93, 100}
	b := WeightedBlocks(ptr, 3)
	checkBounds(t, b, 5, 3, "WeightedBlocks")
	// The hub row must sit alone in its block.
	if b[1] != 1 {
		t.Errorf("WeightedBlocks(%v, 3) = %v: hub row not isolated", ptr, b)
	}
	// All-zero weights fall back to the uniform split.
	zero := WeightedBlocks([]int{0, 0, 0, 0, 0}, 2)
	checkBounds(t, zero, 4, 2, "WeightedBlocks(zero)")
}

func checkBounds(t *testing.T, b []int, n, threads int, what string) {
	t.Helper()
	if len(b) < 2 && n > 0 {
		t.Fatalf("%s(n=%d, threads=%d) = %v: too few boundaries", what, n, threads, b)
	}
	if b[0] != 0 || b[len(b)-1] != n {
		t.Fatalf("%s(n=%d, threads=%d) = %v: does not cover [0, n)", what, n, threads, b)
	}
	for k := 1; k < len(b); k++ {
		if b[k] < b[k-1] {
			t.Fatalf("%s(n=%d, threads=%d) = %v: not monotone", what, n, threads, b)
		}
	}
	if threads >= 1 && len(b)-1 > threads {
		t.Fatalf("%s(n=%d, threads=%d) = %v: more blocks than threads", what, n, threads, b)
	}
}

// TestPatternHasherMatchesOneShot pins that the incremental hasher fed
// block-wise reproduces PatternDigest exactly — the invariant the fused
// streaming decoder relies on.
func TestPatternHasherMatchesOneShot(t *testing.T) {
	a := randSymK(97, 300, false, 4)
	want := PatternDigest(a)
	ph := NewPatternHasher(a.N, a.NNZ())
	ph.WriteInts(a.RowPtr)
	// Feed columns in uneven chunks.
	for lo := 0; lo < len(a.Col); {
		hi := lo + 37
		if hi > len(a.Col) {
			hi = len(a.Col)
		}
		ph.WriteInts(a.Col[lo:hi])
		lo = hi
	}
	if got := ph.SumHex(); got != want {
		t.Fatalf("incremental digest %s != one-shot %s", got, want)
	}
}

// TestPatternDigestPinned pins the digest bytes: they are the matrix half
// of every cache key, so a change here silently invalidates deployed
// caches. The 600-vertex path spans two 512-word chunks of RowPtr.
func TestPatternDigestPinned(t *testing.T) {
	var e []Coord
	for i := 0; i+1 < 600; i++ {
		e = append(e, Coord{Row: i, Col: i + 1, Val: 1}, Coord{Row: i + 1, Col: i, Val: 1})
	}
	for _, c := range []struct {
		a    *CSR
		want string
	}{
		{FromCoords(600, e, true), "d0ca48504129f570c29ddd575cbeae34ff4af3059b99805f12d808d11c56d0c0"},
		{FromCoords(0, nil, true), "bcd83f4035214074f8a726f1b8d55ce59de12e3837e6f22816d3d6752025d5ec"},
	} {
		if got := PatternDigest(c.a); got != c.want {
			t.Errorf("n=%d: digest %s, want %s", c.a.N, got, c.want)
		}
	}
}

// TestPatternHasherWriteIntsAllocFree: the conversion chunk lives in the
// hasher, so streaming ints through a warm hasher allocates nothing.
func TestPatternHasherWriteIntsAllocFree(t *testing.T) {
	xs := make([]int, 1500) // three chunks, the last one partial
	for i := range xs {
		xs[i] = i * 7
	}
	ph := NewPatternHasher(len(xs), len(xs))
	ph.WriteInts(xs)
	if allocs := testing.AllocsPerRun(100, func() { ph.WriteInts(xs) }); allocs != 0 {
		t.Errorf("WriteInts: %v allocs/run, want 0", allocs)
	}
}
