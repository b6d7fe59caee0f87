package graphgen

import (
	"testing"
	"testing/quick"

	"repro/internal/spmat"
)

func TestGrid2DStructure(t *testing.T) {
	a := Grid2D(4, 3)
	if a.N != 12 {
		t.Fatalf("n = %d", a.N)
	}
	if !a.IsSymmetricPattern() {
		t.Error("not symmetric")
	}
	deg := a.Degrees()
	// Corner has 2 neighbours, interior has 4.
	if deg[0] != 2 {
		t.Errorf("corner degree %d", deg[0])
	}
	if deg[5] != 4 { // (1,1)
		t.Errorf("interior degree %d", deg[5])
	}
	// Natural ordering bandwidth = nx.
	if bw := a.Bandwidth(); bw != 4 {
		t.Errorf("bandwidth %d", bw)
	}
	_, ncomp := a.ParallelComponents(1)
	if ncomp != 1 {
		t.Errorf("components %d", ncomp)
	}
}

func TestGrid2D9HasDiagonalNeighbours(t *testing.T) {
	a := Grid2D9(3, 3)
	if !a.Has(0, 4) { // (0,0)-(1,1)
		t.Error("missing diagonal edge")
	}
	if a.Degrees()[4] != 8 {
		t.Errorf("center degree %d", a.Degrees()[4])
	}
}

func TestGrid3DFaceAndBox(t *testing.T) {
	face := Grid3D(3, 3, 3, 1, true)
	box := Grid3D(3, 3, 3, 1, false)
	if face.N != 27 || box.N != 27 {
		t.Fatal("n wrong")
	}
	if face.Degrees()[13] != 6 { // center of 3x3x3
		t.Errorf("7-point center degree %d", face.Degrees()[13])
	}
	if box.Degrees()[13] != 26 {
		t.Errorf("27-point center degree %d", box.Degrees()[13])
	}
	if !face.IsSymmetricPattern() || !box.IsSymmetricPattern() {
		t.Error("not symmetric")
	}
	r2 := Grid3D(5, 5, 5, 2, false)
	if r2.Degrees()[62] != 124 { // center of 5x5x5, radius-2 box
		t.Errorf("radius-2 center degree %d", r2.Degrees()[62])
	}
}

func TestGridMatricesAreDiagonallyDominant(t *testing.T) {
	for name, a := range map[string]*spmat.CSR{
		"grid2d": Grid2D(5, 4),
		"grid3d": Grid3D(3, 4, 2, 1, false),
	} {
		for i := 0; i < a.N; i++ {
			vals := a.RowVals(i)
			var diag, off float64
			for k, j := range a.Row(i) {
				if j == i {
					diag = vals[k]
				} else {
					off += -vals[k]
				}
			}
			if diag <= off {
				t.Fatalf("%s: row %d not diagonally dominant (%f vs %f)", name, i, diag, off)
			}
		}
	}
}

func TestRandomRegular(t *testing.T) {
	a := RandomRegular(200, 5, 7)
	if a.N != 200 || !a.IsSymmetricPattern() {
		t.Fatal("shape")
	}
	// Deterministic for a fixed seed.
	b := RandomRegular(200, 5, 7)
	if a.NNZ() != b.NNZ() {
		t.Error("not deterministic")
	}
	c := RandomRegular(200, 5, 8)
	if a.NNZ() == c.NNZ() && a.Bandwidth() == c.Bandwidth() {
		t.Log("different seeds produced identical stats (unlikely but possible)")
	}
	// Low diameter: BFS from 0 reaches everything quickly.
	levels, nl := a.BFS(0)
	for v, l := range levels {
		if l < 0 {
			t.Fatalf("vertex %d unreachable", v)
		}
	}
	if nl > 6 {
		t.Errorf("diameter-ish %d, expected small", nl)
	}
}

func TestKKTStructure(t *testing.T) {
	h := Grid2D(4, 4)
	k := KKT(h)
	if k.N != 32 {
		t.Fatalf("n = %d", k.N)
	}
	if !k.IsSymmetricPattern() {
		t.Error("KKT not symmetric")
	}
	// Constraint rows couple to variable i and i+1.
	if !k.Has(16, 0) || !k.Has(16, 1) || !k.Has(0, 16) {
		t.Error("coupling pattern wrong")
	}
	_, ncomp := k.ParallelComponents(1)
	if ncomp != 1 {
		t.Errorf("components %d", ncomp)
	}
}

func TestScramblePreservesStructure(t *testing.T) {
	a := Grid2D(6, 6)
	s, perm := Scramble(a, 3)
	if !spmat.IsPerm(perm) {
		t.Fatal("invalid permutation")
	}
	if s.NNZ() != a.NNZ() || !s.IsSymmetricPattern() {
		t.Error("scramble changed structure")
	}
	if s.Bandwidth() <= a.Bandwidth() {
		t.Errorf("scramble did not grow bandwidth: %d <= %d", s.Bandwidth(), a.Bandwidth())
	}
	// Deterministic.
	s2, _ := Scramble(a, 3)
	if s2.Bandwidth() != s.Bandwidth() {
		t.Error("scramble not deterministic")
	}
}

func TestPathStarComplete(t *testing.T) {
	p := Path(5)
	if p.Bandwidth() != 1 || p.Degrees()[0] != 1 || p.Degrees()[2] != 2 {
		t.Error("path structure")
	}
	if Path(1).NNZ() != 1 {
		t.Error("singleton path")
	}
	s := Star(6)
	if s.Degrees()[0] != 5 || s.Degrees()[3] != 1 {
		t.Error("star structure")
	}
	c := Complete(4)
	for _, d := range c.Degrees() {
		if d != 3 {
			t.Error("complete degrees")
		}
	}
}

func TestDisconnected(t *testing.T) {
	d := Disconnected(Path(3), Star(4), Complete(2))
	if d.N != 9 {
		t.Fatalf("n = %d", d.N)
	}
	_, ncomp := d.ParallelComponents(1)
	if ncomp != 3 {
		t.Errorf("components %d", ncomp)
	}
	if !d.IsSymmetricPattern() {
		t.Error("not symmetric")
	}
}

func TestRMAT(t *testing.T) {
	a := RMAT(8, 4, 5)
	if a.N != 256 || !a.IsSymmetricPattern() {
		t.Fatal("rmat shape")
	}
	// Power law: max degree well above average.
	info := spmat.Summarize("rmat", a)
	if float64(info.MaxDegree) < 3*info.AvgDegree {
		t.Errorf("degree skew missing: max %d avg %f", info.MaxDegree, info.AvgDegree)
	}
}

func TestSuiteEntries(t *testing.T) {
	suite := Suite()
	if len(suite) != 9 {
		t.Fatalf("suite has %d entries", len(suite))
	}
	names := map[string]bool{}
	for _, e := range suite {
		if names[e.Name] {
			t.Errorf("duplicate name %s", e.Name)
		}
		names[e.Name] = true
		if e.PaperN <= 0 || e.PaperNNZ <= 0 || e.PaperDiam <= 0 {
			t.Errorf("%s: missing paper reference values", e.Name)
		}
		a := e.Build(8) // small for test speed
		if a.N < 2 {
			t.Errorf("%s: tiny build n=%d", e.Name, a.N)
		}
		if !a.IsSymmetricPattern() {
			t.Errorf("%s: not symmetric", e.Name)
		}
	}
}

func TestSuiteByName(t *testing.T) {
	if e := SuiteByName("ldoor"); e == nil || e.Name != "ldoor" {
		t.Error("lookup failed")
	}
	if SuiteByName("nope") != nil {
		t.Error("phantom entry")
	}
}

func TestSuiteScalesDown(t *testing.T) {
	e := SuiteByName("Serena")
	big := e.Build(4)
	small := e.Build(8)
	if small.N >= big.N {
		t.Errorf("scale 8 (%d) not smaller than scale 4 (%d)", small.N, big.N)
	}
}

func TestThermal2(t *testing.T) {
	a := Thermal2(6)
	if !a.IsSymmetricPattern() || !a.HasValues() {
		t.Error("thermal2 analog must be symmetric with values")
	}
	if a.Bandwidth() < a.N/4 {
		t.Errorf("scrambled bandwidth %d suspiciously small for n=%d", a.Bandwidth(), a.N)
	}
}

func TestQuickGeneratorsAlwaysSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		n := 10 + int(seed%20+20)%20
		a := RandomRegular(n, 3, seed)
		return a.IsSymmetricPattern()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDimClamp(t *testing.T) {
	if dim(10, 100) != 2 {
		t.Error("dim must clamp at 2")
	}
	if dim(10, 0) != 10 {
		t.Error("scale<1 treated as 1")
	}
}
