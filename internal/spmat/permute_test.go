package spmat

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// refPermute is the gather-and-sort PAPᵀ, kept as the reference oracle for
// the counting-sort scatter: row k of the result is old row perm[k] with
// its columns relabeled through the inverse permutation, then re-sorted
// together with its values. It needs no symmetry.
func refPermute(a *CSR, perm []int) *CSR {
	n := a.N
	inv := InvertPerm(perm)
	rowPtr := make([]int, n+1)
	for k, old := range perm {
		rowPtr[k+1] = rowPtr[k] + (a.RowPtr[old+1] - a.RowPtr[old])
	}
	cols := make([]int, a.NNZ())
	var vals []float64
	if a.Val != nil {
		vals = make([]float64, a.NNZ())
	}
	for k, old := range perm {
		dst := cols[rowPtr[k]:rowPtr[k+1]]
		for t, j := range a.Row(old) {
			dst[t] = inv[j]
		}
		if vals == nil {
			sort.Ints(dst)
			continue
		}
		rv := vals[rowPtr[k]:rowPtr[k+1]]
		copy(rv, a.RowVals(old))
		sort.Sort(&colValSorter{dst, rv})
	}
	return &CSR{N: n, RowPtr: rowPtr, Col: cols, Val: vals}
}

// refIsSymmetricPattern is the binary-search symmetry check, kept as the
// reference oracle for the merge-cursor pass: every entry (i, j) looks up
// its mirror (j, i).
func refIsSymmetricPattern(a *CSR) bool {
	for i := 0; i < a.N; i++ {
		for _, j := range a.Row(i) {
			if !a.Has(j, i) {
				return false
			}
		}
	}
	return true
}

// randPattern builds a random n×n matrix with about edges off-diagonal
// entries, mirrored when sym is set, plus every third diagonal entry.
func randPattern(rng *rand.Rand, n, edges int, sym, vals bool) *CSR {
	var coords []Coord
	for e := 0; e < edges; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		coords = append(coords, Coord{i, j, rng.Float64()})
		if sym {
			coords = append(coords, Coord{j, i, rng.Float64()})
		}
	}
	for i := 0; i < n; i += 3 {
		coords = append(coords, Coord{i, i, rng.Float64()})
	}
	return FromCoords(n, coords, !vals)
}

// coordsOf lists the stored entries of a (value 1 on a pattern matrix).
func coordsOf(a *CSR) []Coord {
	var coords []Coord
	for r := 0; r < a.N; r++ {
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			v := 1.0
			if a.Val != nil {
				v = a.Val[k]
			}
			coords = append(coords, Coord{r, a.Col[k], v})
		}
	}
	return coords
}

// withoutEntry returns a copy of a with the stored entry (i, j) removed.
func withoutEntry(a *CSR, i, j int) *CSR {
	var coords []Coord
	for _, e := range coordsOf(a) {
		if e.Row != i || e.Col != j {
			coords = append(coords, e)
		}
	}
	return FromCoords(a.N, coords, a.Val == nil)
}

// withEntry returns a copy of a with the entry (i, j) added.
func withEntry(a *CSR, i, j int) *CSR {
	return FromCoords(a.N, append(coordsOf(a), Coord{i, j, 0.5}), a.Val == nil)
}

type permFixture struct {
	name string
	a    *CSR
	sym  bool
}

// permFixtures is the property corpus for the symmetry check and PAPᵀ:
// random symmetric and non-symmetric patterns with and without values,
// plus the structural edge cases.
func permFixtures() []permFixture {
	rng := rand.New(rand.NewSource(11))
	symVals := randPattern(rng, 90, 300, true, true)
	mid := symVals.Row(symVals.N / 2)
	var hub []Coord
	for j := 0; j < 120; j++ {
		hub = append(hub, Coord{7, j, float64(j)}, Coord{j, 7, float64(-j)})
	}
	// A directed cycle: every row and column holds one entry, so only the
	// column indices, not the counts, reveal the asymmetry.
	var cycle []Coord
	for i := 0; i < 40; i++ {
		cycle = append(cycle, Coord{i, (i + 1) % 40, float64(i)})
	}
	// The fixtures' sym flags are checked against the reference oracle, so
	// an edit that leaves the pattern symmetric fails the corpus loudly.
	return []permFixture{
		{"random-sym-pattern", randPattern(rng, 200, 700, true, false), true},
		{"random-sym-values", symVals, true},
		{"random-asym-pattern", randPattern(rng, 150, 600, false, false), false},
		{"random-asym-values", randPattern(rng, 140, 500, false, true), false},
		{"empty", &CSR{N: 0, RowPtr: []int{0}}, true},
		{"empty-values", &CSR{N: 0, RowPtr: []int{0}, Col: []int{}, Val: []float64{}}, true},
		{"diag-only", FromCoords(5, []Coord{{0, 0, 1}, {1, 1, 2}, {2, 2, 3}, {3, 3, 4}, {4, 4, 5}}, false), true},
		{"isolated-rows", FromCoords(64, []Coord{{0, 63, 1}, {63, 0, 2}}, false), true},
		{"hub-row", FromCoords(120, hub, false), true},
		{"mirror-deleted", withoutEntry(symVals, symVals.N/2, mid[len(mid)-1]), false},
		{"last-row-asym", withEntry(symVals, symVals.N-1, 0), false},
		{"first-row-asym", withEntry(symVals, 0, symVals.N-1), false},
		{"directed-cycle", FromCoords(40, cycle, false), false},
	}
}

// TestSymmetryCheckMatchesReference pins the merge-cursor pass to the
// binary-search oracle on the whole corpus.
func TestSymmetryCheckMatchesReference(t *testing.T) {
	for _, f := range permFixtures() {
		if got := refIsSymmetricPattern(f.a); got != f.sym {
			t.Fatalf("%s: fixture symmetric = %v, want %v", f.name, got, f.sym)
		}
		if got := f.a.IsSymmetricPattern(); got != f.sym {
			t.Errorf("%s: IsSymmetricPattern = %v, want %v", f.name, got, f.sym)
		}
	}
}

// symmetricUnder runs the blocked check's kernel over the row blocks of
// bounds one after another, each with its own cursors and stop flag: the
// parallel path without the scheduler, so any split can be tried.
func symmetricUnder(a *CSR, bounds []int) bool {
	ok := true
	for k := 0; k+1 < len(bounds); k++ {
		ok = a.symmetricRows(bounds[k], bounds[k+1], make([]int, a.N), new(atomic.Bool)) && ok
	}
	return ok
}

// withThreads raises GOMAXPROCS to threads for the test, so the blocked
// check's cap lets that many blocks run, and forces the parallel path on
// small fixtures.
func withThreads(t *testing.T, threads int) {
	t.Helper()
	forceParallel(t)
	old := runtime.GOMAXPROCS(threads)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestBlockedSymmetryCheckMatchesMerge pins the blocked check to the serial
// merge and the binary-search oracle on the whole corpus: at 1–5 threads,
// at every two-way split, and at multi-way splits. The hub-row and banded
// fixtures put block boundaries inside one row's run of mirrors.
func TestBlockedSymmetryCheckMatchesMerge(t *testing.T) {
	withThreads(t, 5)
	var band []Coord
	for i := 0; i < 50; i++ {
		for j := max(i-4, 0); j <= min(i+4, 49); j++ {
			band = append(band, Coord{i, j, 1})
		}
	}
	banded := FromCoords(50, band, true)
	fixtures := permFixtures()
	for _, f := range fixtures {
		if f.name == "hub-row" {
			fixtures = append(fixtures, permFixture{"hub-mirror-deleted", withoutEntry(f.a, 90, 7), false})
		}
	}
	fixtures = append(fixtures,
		permFixture{"banded", banded, true},
		permFixture{"banded-mirror-deleted", withoutEntry(banded, 30, 27), false})
	rng := rand.New(rand.NewSource(3))
	for _, f := range fixtures {
		if got := refIsSymmetricPattern(f.a); got != f.sym {
			t.Fatalf("%s: fixture symmetric = %v, want %v", f.name, got, f.sym)
		}
		if got := f.a.IsSymmetricPattern(); got != f.sym {
			t.Errorf("%s: serial merge = %v, want %v", f.name, got, f.sym)
		}
		for threads := 1; threads <= 5; threads++ {
			if got := f.a.IsSymmetricPatternPar(threads); got != f.sym {
				t.Errorf("%s: %d threads = %v, want %v", f.name, threads, got, f.sym)
			}
		}
		n := f.a.N
		for r0 := 0; r0 <= n; r0++ {
			if got := symmetricUnder(f.a, []int{0, r0, n}); got != f.sym {
				t.Errorf("%s: split at row %d = %v, want %v", f.name, r0, got, f.sym)
			}
		}
		for trial := 0; trial < 20; trial++ {
			bounds := []int{0}
			for k := rng.Intn(5); k > 0; k-- {
				bounds = append(bounds, rng.Intn(n+1))
			}
			bounds = append(bounds, n)
			sort.Ints(bounds)
			if got := symmetricUnder(f.a, bounds); got != f.sym {
				t.Errorf("%s: blocks %v = %v, want %v", f.name, bounds, got, f.sym)
			}
		}
	}
}

// TestQuickBlockedSymmetryCheck sweeps random patterns — symmetric, with
// about a tenth of the mirrors dropped, or unmirrored — at a random thread
// count and a random split against the binary-search oracle.
func TestQuickBlockedSymmetryCheck(t *testing.T) {
	withThreads(t, 5)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(80)
		var coords []Coord
		mode := r.Intn(3)
		for e := r.Intn(4 * n); e > 0; e-- {
			i, j := r.Intn(n), r.Intn(n)
			coords = append(coords, Coord{i, j, 1})
			if mode == 0 || mode == 1 && r.Intn(10) > 0 {
				coords = append(coords, Coord{j, i, 1})
			}
		}
		a := FromCoords(n, coords, true)
		want := refIsSymmetricPattern(a)
		split := []int{0, r.Intn(n + 1), n}
		sort.Ints(split)
		return a.IsSymmetricPattern() == want &&
			a.IsSymmetricPatternPar(1+r.Intn(5)) == want &&
			symmetricUnder(a, split) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

// TestSymmetryCheckAllocatesOnce pins the one-block path to its single
// cursor array.
func TestSymmetryCheckAllocatesOnce(t *testing.T) {
	a := randPattern(rand.New(rand.NewSource(4)), 300, 900, true, false)
	if got := testing.AllocsPerRun(20, func() { a.IsSymmetricPattern() }); got != 1 {
		t.Errorf("IsSymmetricPattern allocates %v times per call, want 1", got)
	}
}

// TestPermuteMatchesReference pins the counting-sort scatter byte for byte
// (RowPtr, Col, Val, and nil-ness of Val) to the gather-and-sort oracle on
// the whole corpus, under identity, reversal and random permutations.
func TestPermuteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, f := range permFixtures() {
		n := f.a.N
		rev := make([]int, n)
		for k := range rev {
			rev[k] = n - 1 - k
		}
		for _, perm := range [][]int{identity(n), rev, rng.Perm(n), rng.Perm(n)} {
			got, want := f.a.Permute(perm), refPermute(f.a, perm)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Permute differs from the reference under %v", f.name, perm)
			}
		}
	}
}

// TestPermuteCheckedTrustsCallerAnswer pins that PAPᵀ built from the
// caller's symmetry answer equals the self-checking Permute on symmetric and
// non-symmetric inputs.
func TestPermuteCheckedTrustsCallerAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, f := range permFixtures() {
		perm := rng.Perm(f.a.N)
		got, err := f.a.PermuteChecked(perm, f.sym)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if want := f.a.Permute(perm); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: PermuteChecked(perm, %v) differs from Permute", f.name, f.sym)
		}
	}
}

// TestQuickPermuteMatchesReference extends the comparison to random
// shapes: sizes, densities, symmetry and values all drawn per seed.
func TestQuickPermuteMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		a := randPattern(r, n, r.Intn(4*n), r.Intn(2) == 0, r.Intn(2) == 0)
		if a.IsSymmetricPattern() != refIsSymmetricPattern(a) {
			return false
		}
		perm := r.Perm(n)
		return reflect.DeepEqual(a.Permute(perm), refPermute(a, perm))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}

// TestPermuteCheckedReturnsDiagnosis pins that the error-returning entry
// point reports exactly the ValidatePerm diagnosis, without panicking.
func TestPermuteCheckedReturnsDiagnosis(t *testing.T) {
	a := tri(3, [2]int{0, 1}, [2]int{1, 0})
	for _, perm := range [][]int{{0, 1}, {0, 1, 1}, {0, 3, 1}, {-1, 0, 1}} {
		p, err := a.PermuteChecked(perm, true)
		want := ValidatePerm(perm, a.N)
		if p != nil || err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("PermuteChecked(%v) = %v, %v; want nil, %v", perm, p, err, want)
		}
	}
}
