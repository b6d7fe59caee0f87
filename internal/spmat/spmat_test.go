package spmat

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// tri builds a small matrix from triples for tests.
func tri(n int, coords ...[2]int) *CSR {
	es := make([]Coord, len(coords))
	for i, c := range coords {
		es[i] = Coord{Row: c[0], Col: c[1], Val: 1}
	}
	return FromCoords(n, es, true)
}

// identity returns the identity permutation of length n.
func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func TestFromCoordsSortsAndDedupes(t *testing.T) {
	a := FromCoords(3, []Coord{
		{2, 1, 5}, {0, 2, 1}, {0, 0, 2}, {0, 2, 3}, {2, 0, 1},
	}, false)
	if a.NNZ() != 4 {
		t.Fatalf("nnz = %d, want 4", a.NNZ())
	}
	if got := a.Row(0); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("row 0 = %v", got)
	}
	if got := a.RowVals(0); !reflect.DeepEqual(got, []float64{2, 4}) {
		t.Errorf("row 0 vals = %v (duplicates must sum)", got)
	}
	if got := a.Row(1); len(got) != 0 {
		t.Errorf("row 1 = %v, want empty", got)
	}
	if got := a.Row(2); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("row 2 = %v", got)
	}
}

func TestFromCoordsPatternDropsValues(t *testing.T) {
	a := FromCoords(2, []Coord{{0, 1, 9}}, true)
	if a.HasValues() {
		t.Error("pattern matrix has values")
	}
	if a.RowVals(0) != nil {
		t.Error("pattern RowVals not nil")
	}
}

func TestFromCoordsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromCoords(2, []Coord{{0, 5, 1}}, true)
}

func TestEmptyMatrix(t *testing.T) {
	a := FromCoords(0, nil, true)
	if a.NNZ() != 0 || a.Bandwidth() != 0 || a.Profile() != 0 {
		t.Error("empty matrix metrics nonzero")
	}
	_, ncomp := a.ParallelComponents(1)
	if ncomp != 0 {
		t.Errorf("empty matrix has %d components", ncomp)
	}
}

func TestTranspose(t *testing.T) {
	a := FromCoords(3, []Coord{{0, 1, 2}, {1, 2, 3}, {2, 0, 4}}, false)
	at := a.Transpose()
	if !at.Has(1, 0) || !at.Has(2, 1) || !at.Has(0, 2) {
		t.Error("transpose pattern wrong")
	}
	if at.RowVals(1)[0] != 2 {
		t.Errorf("transpose values wrong: %v", at.RowVals(1))
	}
	// (Aᵀ)ᵀ = A.
	att := at.Transpose()
	if !reflect.DeepEqual(att.RowPtr, a.RowPtr) || !reflect.DeepEqual(att.Col, a.Col) {
		t.Error("double transpose differs")
	}
}

func TestSymmetrize(t *testing.T) {
	a := FromCoords(3, []Coord{{0, 1, 2}, {2, 2, 1}}, false)
	s := a.Symmetrize()
	if !s.IsSymmetricPattern() {
		t.Fatal("not symmetric")
	}
	if !s.Has(1, 0) || !s.Has(0, 1) || !s.Has(2, 2) {
		t.Error("symmetrize lost entries")
	}
	if s.NNZ() != 3 {
		t.Errorf("nnz = %d, want 3", s.NNZ())
	}
}

func TestIsSymmetricPattern(t *testing.T) {
	if !tri(2, [2]int{0, 1}, [2]int{1, 0}).IsSymmetricPattern() {
		t.Error("symmetric reported asymmetric")
	}
	if tri(2, [2]int{0, 1}).IsSymmetricPattern() {
		t.Error("asymmetric reported symmetric")
	}
}

func TestDegreesExcludeDiagonal(t *testing.T) {
	a := tri(3, [2]int{0, 0}, [2]int{0, 1}, [2]int{1, 0}, [2]int{1, 1}, [2]int{2, 2})
	if got := a.Degrees(); !reflect.DeepEqual(got, []int{1, 1, 0}) {
		t.Errorf("degrees = %v", got)
	}
}

func TestBandwidthAndProfile(t *testing.T) {
	// Tridiagonal 4x4: bandwidth 1, profile 3.
	a := tri(4,
		[2]int{0, 0}, [2]int{0, 1},
		[2]int{1, 0}, [2]int{1, 1}, [2]int{1, 2},
		[2]int{2, 1}, [2]int{2, 2}, [2]int{2, 3},
		[2]int{3, 2}, [2]int{3, 3})
	if got := a.Bandwidth(); got != 1 {
		t.Errorf("bandwidth = %d, want 1", got)
	}
	if got := a.Profile(); got != 3 {
		t.Errorf("profile = %d, want 3", got)
	}
	// Arrow matrix: entry (3,0) gives bandwidth 3.
	b := tri(4, [2]int{3, 0}, [2]int{0, 3})
	if got := b.Bandwidth(); got != 3 {
		t.Errorf("arrow bandwidth = %d", got)
	}
	if got := b.Profile(); got != 3 {
		t.Errorf("arrow profile = %d (row 3 only)", got)
	}
}

func TestPermuteIdentity(t *testing.T) {
	a := tri(3, [2]int{0, 1}, [2]int{1, 0}, [2]int{2, 2})
	p := a.Permute(identity(3))
	if !reflect.DeepEqual(p.Col, a.Col) || !reflect.DeepEqual(p.RowPtr, a.RowPtr) {
		t.Error("identity permutation changed matrix")
	}
}

func TestPermuteReversal(t *testing.T) {
	// Entry (0,1) under reversal perm [2,1,0] maps to (2,1).
	a := tri(3, [2]int{0, 1}, [2]int{1, 0})
	p := a.Permute([]int{2, 1, 0})
	if !p.Has(2, 1) || !p.Has(1, 2) {
		t.Errorf("reversal wrong: %v", p)
	}
	if p.NNZ() != 2 {
		t.Errorf("nnz changed: %d", p.NNZ())
	}
}

func TestPermutePreservesValues(t *testing.T) {
	a := FromCoords(2, []Coord{{0, 0, 5}, {1, 1, 7}}, false)
	p := a.Permute([]int{1, 0})
	if p.RowVals(0)[0] != 7 || p.RowVals(1)[0] != 5 {
		t.Errorf("values not permuted: %v %v", p.RowVals(0), p.RowVals(1))
	}
}

func TestPermuteWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tri(3, [2]int{0, 0}).Permute([]int{0, 1})
}

func TestPermuteCorruptPermPanics(t *testing.T) {
	// A duplicate entry would silently produce a corrupt matrix (two old
	// rows collapsing onto one new index); Permute must refuse loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tri(3, [2]int{0, 1}).Permute([]int{0, 1, 1})
}

func TestValidatePerm(t *testing.T) {
	cases := []struct {
		name string
		p    []int
		n    int
		want string // "" = valid; else substring of the error
	}{
		{"identity", []int{0, 1, 2}, 3, ""},
		{"reversal", []int{2, 1, 0}, 3, ""},
		{"empty", nil, 0, ""},
		{"short", []int{0, 1}, 3, "length 2"},
		{"long", []int{0, 1, 2}, 2, "length 3"},
		{"negative", []int{0, -1, 2}, 3, "position 1"},
		{"too large", []int{0, 3, 2}, 3, "entry 3 at position 1"},
		{"duplicate", []int{0, 2, 2}, 3, "repeats entry 2 at positions 1 and 2"},
	}
	for _, tc := range cases {
		err := ValidatePerm(tc.p, tc.n)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

func randSym(rng *rand.Rand, n, m int) *CSR {
	var es []Coord
	for k := 0; k < m; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		es = append(es, Coord{i, j, 1}, Coord{j, i, 1})
	}
	return FromCoords(n, es, true)
}

func TestQuickPermuteInvariants(t *testing.T) {
	// Bandwidth and profile are computed after permutation on identical
	// entry multisets: nnz is invariant and symmetry is preserved.
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		a := randSym(r, n, 3*n)
		perm := r.Perm(n)
		p := a.Permute(perm)
		if p.NNZ() != a.NNZ() {
			return false
		}
		if !p.IsSymmetricPattern() {
			return false
		}
		// Permuting back recovers A.
		back := p.Permute(InvertPerm(perm))
		return reflect.DeepEqual(back.Col, a.Col) && reflect.DeepEqual(back.RowPtr, a.RowPtr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestBFSPath(t *testing.T) {
	a := tri(4, [2]int{0, 1}, [2]int{1, 0}, [2]int{1, 2}, [2]int{2, 1}, [2]int{2, 3}, [2]int{3, 2})
	levels, nl := a.BFS(0)
	if !reflect.DeepEqual(levels, []int{0, 1, 2, 3}) {
		t.Errorf("levels = %v", levels)
	}
	if nl != 4 {
		t.Errorf("nlevels = %d", nl)
	}
}

func TestBFSIgnoresSelfLoops(t *testing.T) {
	a := tri(2, [2]int{0, 0}, [2]int{0, 1}, [2]int{1, 0}, [2]int{1, 1})
	levels, _ := a.BFS(0)
	if !reflect.DeepEqual(levels, []int{0, 1}) {
		t.Errorf("levels = %v", levels)
	}
}

func TestBFSDisconnected(t *testing.T) {
	a := tri(3, [2]int{0, 1}, [2]int{1, 0})
	levels, _ := a.BFS(0)
	if levels[2] != -1 {
		t.Errorf("unreachable vertex has level %d", levels[2])
	}
}

func TestComponents(t *testing.T) {
	a := tri(5, [2]int{0, 1}, [2]int{1, 0}, [2]int{3, 4}, [2]int{4, 3})
	comp, n := a.ParallelComponents(1)
	if n != 3 {
		t.Fatalf("ncomp = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[3] != comp[4] || comp[0] == comp[3] || comp[2] == comp[0] {
		t.Errorf("components = %v", comp)
	}
	// Numbered by smallest vertex id.
	if comp[0] != 0 || comp[2] != 1 || comp[3] != 2 {
		t.Errorf("component numbering = %v", comp)
	}
}

func TestIsPermAndInvert(t *testing.T) {
	if !IsPerm([]int{2, 0, 1}) {
		t.Error("valid perm rejected")
	}
	if IsPerm([]int{0, 0, 1}) {
		t.Error("duplicate accepted")
	}
	if IsPerm([]int{0, 3}) {
		t.Error("out of range accepted")
	}
	if IsPerm([]int{0, -1}) {
		t.Error("negative accepted")
	}
	inv := InvertPerm([]int{2, 0, 1})
	if !reflect.DeepEqual(inv, []int{1, 2, 0}) {
		t.Errorf("invert = %v", inv)
	}
}

func TestQuickInvertPermIsInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := r.Perm(1 + r.Intn(50))
		return reflect.DeepEqual(InvertPerm(InvertPerm(p)), p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// cscFromCoords builds a rectangular CSC pattern matrix from (row, col)
// pairs, sorting rows within each column and dropping duplicates. A test
// helper: production blocks are built straight from CSR rows (see
// distmat.NewMat).
func cscFromCoords(rows, cols int, rr, cc []int) *CSC {
	counts := make([]int, cols+1)
	for _, c := range cc {
		counts[c+1]++
	}
	ptr := make([]int, cols+1)
	for j := 0; j < cols; j++ {
		ptr[j+1] = ptr[j] + counts[j+1]
	}
	rowIdx := make([]int, len(rr))
	next := append([]int(nil), ptr...)
	for k, c := range cc {
		rowIdx[next[c]] = rr[k]
		next[c]++
	}
	outPtr := make([]int, cols+1)
	w := 0
	for j := 0; j < cols; j++ {
		col := rowIdx[ptr[j]:ptr[j+1]]
		sort.Ints(col)
		start := w
		for _, r := range col {
			if w > start && rowIdx[w-1] == r {
				continue
			}
			rowIdx[w] = r
			w++
		}
		outPtr[j+1] = w
	}
	row32 := make([]int32, w)
	for k, r := range rowIdx[:w] {
		row32[k] = int32(r)
	}
	return &CSC{Rows: rows, Cols: cols, ColPtr: outPtr, Row: row32}
}

func TestCSCFromCoords(t *testing.T) {
	c := cscFromCoords(3, 2, []int{2, 0, 2}, []int{0, 1, 0})
	if c.NNZ() != 2 { // duplicate (2,0) dropped
		t.Fatalf("nnz = %d", c.NNZ())
	}
	if got := c.Column(0); !reflect.DeepEqual(got, []int32{2}) {
		t.Errorf("col 0 = %v", got)
	}
	if got := c.Column(1); !reflect.DeepEqual(got, []int32{0}) {
		t.Errorf("col 1 = %v", got)
	}
}

// SerialSummary is Summarize's oracle: every Info field from the serial
// Degrees, Bandwidth, Profile and the DFS component count. It is exported for the
// external test package, whose suite analogs pass the parallel gate.
func SerialSummary(name string, a *CSR) Info {
	maxd, sum := 0, 0
	for _, d := range a.Degrees() {
		maxd = max(maxd, d)
		sum += d
	}
	avg := 0.0
	if a.N > 0 {
		avg = float64(sum) / float64(a.N)
	}
	_, ncomp := dfsComponents(a)
	return Info{Name: name, N: a.N, NNZ: a.NNZ(), Bandwidth: a.Bandwidth(), Profile: a.Profile(),
		Components: ncomp, MaxDegree: maxd, AvgDegree: avg}
}

// TestSummarize pins every Info field: on a hand-checked fixture, then
// against SerialSummary with the parallel gate forced down.
func TestSummarize(t *testing.T) {
	a := tri(4, [2]int{0, 1}, [2]int{1, 0}, [2]int{2, 3}, [2]int{3, 2})
	want := Info{Name: "t", N: 4, NNZ: 4, Bandwidth: 1, Profile: 2, Components: 2, MaxDegree: 1, AvgDegree: 1}
	if info := Summarize("t", a); info != want {
		t.Errorf("info = %#v, want %#v", info, want)
	}
	if want.String() == "" {
		t.Error("empty string rendering")
	}
	forceParallel(t)
	var hub []Coord
	for j := 0; j < 150; j++ {
		hub = append(hub, Coord{0, j, 1}, Coord{j, 0, 1})
	}
	mats := []struct {
		name string
		a    *CSR
	}{
		{"random-pattern", randSymK(257, 900, false, 1)},
		{"random-values", randSymK(180, 700, true, 2)},
		{"sparse-components", randSymK(300, 120, false, 3)},
		{"empty", &CSR{N: 0, RowPtr: []int{0}}},
		{"isolated-rows", FromCoords(64, []Coord{{0, 63, 1}, {63, 0, 1}}, true)},
		{"hub", FromCoords(150, hub, true)},
	}
	for _, m := range mats {
		if got, want := Summarize(m.name, m.a), SerialSummary(m.name, m.a); got != want {
			t.Errorf("%s: Summarize = %#v, serial kernels give %#v", m.name, got, want)
		}
	}
}

func TestSpyString(t *testing.T) {
	a := tri(4, [2]int{0, 0}, [2]int{3, 3})
	s := a.SpyString(4, 4)
	if len(s) != 4*5 {
		t.Errorf("spy size %d: %q", len(s), s)
	}
	if s[0] == ' ' {
		t.Error("corner (0,0) empty in spy plot")
	}
	if FromCoords(0, nil, true).SpyString(3, 3) == "" {
		t.Error("empty spy")
	}
}
