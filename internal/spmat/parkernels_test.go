package spmat

import (
	"math/rand"
	"reflect"
	"sort"
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

// bandPattern is the width-k band of an n×n matrix: every entry (i, j)
// with |i−j| ≤ k, with random values when vals is set.
func bandPattern(n, k int, vals bool, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	var coords []Coord
	for i := 0; i < n; i++ {
		for j := max(i-k, 0); j <= min(i+k, n-1); j++ {
			coords = append(coords, Coord{i, j, rng.Float64()})
		}
	}
	return FromCoords(n, coords, !vals)
}

// localPerm is a permutation of 0..n-1 that moves no index by more than w:
// a shuffle within each run of w+1 consecutive indices.
func localPerm(n, w int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	p := identity(n)
	for lo := 0; lo < n; lo += w + 1 {
		run := p[lo:min(lo+w+1, n)]
		rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
	}
	return p
}

// parallelFixtures is the corpus of the row-block sweeps: random patterns,
// the structural edge cases, a hub row that the weighted partitioner gives
// a block of its own, narrow bands whose block windows overlap only at
// their edges, and non-symmetric patterns, which take the transpose path.
// The hub, band and non-symmetric shapes come with and without values.
func parallelFixtures() map[string]*CSR {
	mats := map[string]*CSR{
		"random-pattern": randSymK(257, 900, false, 1),
		"random-values":  randSymK(180, 700, true, 2),
		"empty":          {N: 0, RowPtr: []int{0}},
		"diag-only":      FromCoords(5, []Coord{{0, 0, 1}, {1, 1, 1}, {2, 2, 1}, {3, 3, 1}, {4, 4, 1}}, true),
		"isolated-rows":  FromCoords(64, []Coord{{0, 63, 1}, {63, 0, 1}}, true),
	}
	var hub []Coord
	for j := 0; j < 150; j++ {
		hub = append(hub, Coord{0, j, float64(j)}, Coord{j, 0, float64(-j)})
	}
	rng := rand.New(rand.NewSource(7))
	for _, vals := range []bool{false, true} {
		suffix := "-pattern"
		if vals {
			suffix = "-values"
		}
		mats["hub"+suffix] = FromCoords(150, hub, !vals)
		mats["band3"+suffix] = bandPattern(211, 3, vals, 8)
		mats["band1"+suffix] = bandPattern(64, 1, vals, 9)
		mats["asym"+suffix] = randPattern(rng, 170, 600, false, vals)
	}
	return mats
}

// TestParallelKernelsMatchSerial pins the contract of the row-block
// kernels: at every block count, PermutePar equals the gather-and-sort
// oracle byte for byte under the identity, the reversal, a permutation that
// moves no index by more than 5, and a random one, and
// Bandwidth/Profile/Wavefront over row blocks equal the serial methods.
// GOMAXPROCS is raised to 9 so that no block count is capped.
func TestParallelKernelsMatchSerial(t *testing.T) {
	withThreads(t, 9)
	for name, a := range parallelFixtures() {
		n := a.N
		rev := make([]int, n)
		for k := range rev {
			rev[k] = n - 1 - k
		}
		perms := map[string][]int{
			"identity": identity(n),
			"reversal": rev,
			"local5":   localPerm(n, 5, int64(n)),
			"random":   rand.New(rand.NewSource(int64(n))).Perm(n),
		}
		for _, threads := range []int{1, 2, 3, 4, 9} {
			for pname, perm := range perms {
				if got, want := a.PermutePar(perm, threads), refPermute(a, perm); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s threads=%d: PermutePar differs from the reference", name, pname, threads)
				}
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

// TestPermuteRowsAnySplit runs the blocked kernel over arbitrary row
// splits one block after another, the parallel path without the scheduler:
// empty blocks, one-row blocks and splits inside the hub row's neighbours
// must all give the reference.
func TestPermuteRowsAnySplit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for name, a := range parallelFixtures() {
		n := a.N
		for trial := 0; trial < 10; trial++ {
			perm := localPerm(n, 1+rng.Intn(8), rng.Int63())
			if trial%2 == 1 {
				perm = rng.Perm(n)
			}
			bounds := []int{0}
			for k := rng.Intn(6); k > 0; k-- {
				bounds = append(bounds, rng.Intn(n+1))
			}
			bounds = append(bounds, n)
			sort.Ints(bounds)
			if got, want := permuteUnder(a, perm, bounds), refPermute(a, perm); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: blocks %v differ from the reference", name, bounds)
			}
		}
	}
}

// permuteUnder is PermuteChecked with the block kernel run over the row
// blocks of bounds in turn.
func permuteUnder(a *CSR, perm, bounds []int) *CSR {
	inv := InvertPerm(perm)
	pm := newPermuter(a, perm, inv, refIsSymmetricPattern(a))
	pm.band = a.permutedBand(inv, 1)
	for k := 0; k+1 < len(bounds); k++ {
		pm.rows(bounds[k], bounds[k+1])
	}
	return pm.out
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

// TestPatternDigestAllocatesOnce: the hash and its conversion chunk stay on
// the stack, so a digest allocates only the hex string it returns.
func TestPatternDigestAllocatesOnce(t *testing.T) {
	a := randSymK(97, 300, false, 4)
	if got := testing.AllocsPerRun(20, func() { PatternDigest(a) }); got != 1 {
		t.Errorf("PatternDigest allocates %v times per call, want 1", got)
	}
}
