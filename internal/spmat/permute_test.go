package spmat

import (
	"math/rand"
	"reflect"
	"sort"
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
		for _, perm := range [][]int{Identity(n), rev, rng.Perm(n), rng.Perm(n)} {
			got, want := f.a.Permute(perm), refPermute(f.a, perm)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Permute differs from the reference under %v", f.name, perm)
			}
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
		p, err := a.PermuteChecked(perm)
		want := ValidatePerm(perm, a.N)
		if p != nil || err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("PermuteChecked(%v) = %v, %v; want nil, %v", perm, p, err, want)
		}
	}
}
