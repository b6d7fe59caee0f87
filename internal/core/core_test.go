package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graphgen"
	"repro/internal/spmat"
)

func randSym(seed int64, n, m int) *spmat.CSR {
	rng := rand.New(rand.NewSource(seed))
	var es []spmat.Coord
	for k := 0; k < m; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		es = append(es, spmat.Coord{Row: i, Col: j, Val: 1}, spmat.Coord{Row: j, Col: i, Val: 1})
	}
	for v := 0; v < n; v++ {
		es = append(es, spmat.Coord{Row: v, Col: v, Val: 1})
	}
	return spmat.FromCoords(n, es, true)
}

// withThreads raises GOMAXPROCS to threads for the test, so the Shared
// engine, which caps its block count there, runs that many blocks.
func withThreads(t *testing.T, threads int) {
	t.Helper()
	old := runtime.GOMAXPROCS(threads)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestSequentialProducesValidPermutation(t *testing.T) {
	cases := map[string]*spmat.CSR{
		"path":         graphgen.Path(17),
		"star":         graphgen.Star(9),
		"complete":     graphgen.Complete(6),
		"grid2d":       graphgen.Grid2D(7, 5),
		"random":       randSym(1, 50, 120),
		"disconnected": graphgen.Disconnected(graphgen.Path(5), graphgen.Star(4), graphgen.Path(3)),
		"singleton":    graphgen.Path(1),
		"two isolated": spmat.FromCoords(2, nil, true),
	}
	for name, a := range cases {
		got := Sequential(a)
		if !spmat.IsPerm(got.Perm) {
			t.Errorf("%s: invalid permutation %v", name, got.Perm)
		}
	}
}

// TestSequentialAllocsBounded pins the labelling loop's allocations on the
// scale-2 ldoor analog: a per-vertex heap allocation (an escaping closure
// built inside the BFS loop once cost 13,564 per order) shows up here.
func TestSequentialAllocsBounded(t *testing.T) {
	a := graphgen.SuiteByName("ldoor").Build(2)
	opt := DefaultOptions()
	if allocs := testing.AllocsPerRun(3, func() { SequentialOpt(a, opt) }); allocs > 256 {
		t.Errorf("SequentialOpt made %.0f allocations per order on n=%d, want ≤ 256", allocs, a.N)
	}
}

// TestSharedThreadsCappedAtGOMAXPROCS: a block beyond GOMAXPROCS costs a
// goroutine and a candidate buffer per level and adds no parallelism, so an
// order at 10,000 threads allocates no more than one at 1 (AllocsPerRun
// runs at GOMAXPROCS 1).
func TestSharedThreadsCappedAtGOMAXPROCS(t *testing.T) {
	a := graphgen.SuiteByName("ldoor").Build(4)
	opt := DefaultOptions()
	one := testing.AllocsPerRun(3, func() { SharedOpt(a, 1, opt) })
	wide := testing.AllocsPerRun(3, func() { SharedOpt(a, 10000, opt) })
	if wide > one {
		t.Errorf("SharedOpt made %.0f allocations at 10,000 threads, %.0f at 1", wide, one)
	}
}

// TestComponentCostLinear: each component costs its own size, so 100,000
// isolated vertices order in milliseconds. An engine that touches all n
// vertices per component takes seconds here.
func TestComponentCostLinear(t *testing.T) {
	const n = 100_000
	diag := make([]spmat.Coord, n)
	for i := range diag {
		diag[i] = spmat.Coord{Row: i, Col: i, Val: 1}
	}
	a := spmat.FromCoords(n, diag, true)
	for _, e := range []struct {
		name  string
		order func() *Ordering
	}{
		{"sequential", func() *Ordering { return SequentialOpt(a, DefaultOptions()) }},
		{"shared/t2", func() *Ordering { return SharedOpt(a, 2, DefaultOptions()) }},
		{"sloan", func() *Ordering { return Sloan(a) }},
	} {
		start := time.Now()
		o := e.order()
		if took := time.Since(start); o.Components != n || took > time.Second {
			t.Errorf("%s: %d components in %v, want %d within 1s", e.name, o.Components, took, n)
		}
	}
}

func TestSequentialEmptyMatrix(t *testing.T) {
	got := Sequential(spmat.FromCoords(0, nil, true))
	if len(got.Perm) != 0 || got.Components != 0 {
		t.Errorf("empty: %+v", got)
	}
}

func TestSequentialPathBandwidth(t *testing.T) {
	// RCM on a scrambled path must recover bandwidth 1.
	a, _ := graphgen.Scramble(graphgen.Path(40), 3)
	ord := Sequential(a)
	p := a.Permute(ord.Perm)
	if bw := p.Bandwidth(); bw != 1 {
		t.Errorf("path bandwidth after RCM = %d, want 1", bw)
	}
	if ord.PseudoDiameter != 39 {
		t.Errorf("path pseudo-diameter = %d, want 39", ord.PseudoDiameter)
	}
}

func TestSequentialReducesBandwidthOnMeshes(t *testing.T) {
	for name, gen := range map[string]*spmat.CSR{
		"grid2d": graphgen.Grid2D(20, 20),
		"grid3d": graphgen.Grid3D(8, 8, 8, 1, true),
	} {
		a, _ := graphgen.Scramble(gen, 5)
		before := a.Bandwidth()
		p := a.Permute(Sequential(a).Perm)
		after := p.Bandwidth()
		if after >= before/4 {
			t.Errorf("%s: bandwidth %d -> %d; expected a large reduction", name, before, after)
		}
		if p.Profile() >= a.Profile() {
			t.Errorf("%s: profile %d -> %d not reduced", name, a.Profile(), p.Profile())
		}
	}
}

func TestSequentialComponentsCounted(t *testing.T) {
	a := graphgen.Disconnected(graphgen.Path(6), graphgen.Grid2D(3, 3), graphgen.Star(4))
	got := Sequential(a)
	if got.Components != 3 {
		t.Errorf("components = %d, want 3", got.Components)
	}
}

func TestNoReverseGivesCuthillMcKee(t *testing.T) {
	a, _ := graphgen.Scramble(graphgen.Grid2D(6, 6), 9)
	rcm := Sequential(a)
	cm := SequentialOpt(a, Options{Start: -1, NoReverse: true})
	n := a.N
	for k := 0; k < n; k++ {
		if rcm.Perm[k] != cm.Perm[n-1-k] {
			t.Fatalf("RCM is not the reverse of CM at %d", k)
		}
	}
	// CM and RCM have the same bandwidth (reversal preserves |i-j|).
	if a.Permute(rcm.Perm).Bandwidth() != a.Permute(cm.Perm).Bandwidth() {
		t.Error("reversal changed bandwidth")
	}
}

func TestStartPinning(t *testing.T) {
	a := graphgen.Path(9)
	ord := SequentialOpt(a, Options{Start: 4, SkipPeripheral: true})
	// CM from the middle of a path: vertex 4 first, so RCM places it last.
	if ord.Perm[len(ord.Perm)-1] != 4 {
		t.Errorf("pinned start not last in RCM: %v", ord.Perm)
	}
}

// --- The central equivalence oracle -------------------------------------

// assertSamePerm fails unless all orderings are identical.
func assertSamePerm(t *testing.T, name string, want []int, got []int, impl string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		limit := len(want)
		if limit > 20 {
			limit = 20
		}
		t.Errorf("%s: %s ordering differs from sequential\nseq : %v\n%s: %v",
			name, impl, want[:limit], impl, got[:limit])
	}
}

func equivalenceCases() map[string]*spmat.CSR {
	grid2, _ := graphgen.Scramble(graphgen.Grid2D(9, 7), 21)
	grid3, _ := graphgen.Scramble(graphgen.Grid3D(5, 4, 3, 1, false), 22)
	rr := graphgen.RandomRegular(60, 4, 23)
	disc := graphgen.Disconnected(graphgen.Path(7), graphgen.Grid2D(4, 4), graphgen.Star(5))
	discScrambled, _ := graphgen.Scramble(disc, 24)
	return map[string]*spmat.CSR{
		"path":         graphgen.Path(31),
		"star":         graphgen.Star(12),
		"complete":     graphgen.Complete(7),
		"grid2d":       grid2,
		"grid3d":       grid3,
		"random-reg":   rr,
		"disconnected": discScrambled,
		"random":       randSym(25, 80, 200),
		"singleton":    graphgen.Path(1),
	}
}

func TestSharedMatchesSequential(t *testing.T) {
	withThreads(t, 4)
	for name, a := range equivalenceCases() {
		want := Sequential(a)
		for _, threads := range []int{1, 2, 4} {
			got := Shared(a, threads)
			assertSamePerm(t, name, want.Perm, got.Perm, "shared")
			if want.PseudoDiameter != got.PseudoDiameter {
				t.Errorf("%s t=%d: pseudo-diameter %d vs %d", name, threads, want.PseudoDiameter, got.PseudoDiameter)
			}
		}
	}
}

// TestAlgebraicMatchesSequential checks the algebraic formulation
// (Algorithms 3–4) on a 1×1 grid, which is what rcm.Algebraic runs.
func TestAlgebraicMatchesSequential(t *testing.T) {
	for name, a := range equivalenceCases() {
		assertDistributedMatches(t, name, a, Sequential(a), 1)
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	for name, a := range equivalenceCases() {
		want := Sequential(a)
		for _, p := range []int{4, 16} {
			assertDistributedMatches(t, name, a, want, p)
		}
	}
}

func assertDistributedMatches(t *testing.T, name string, a *spmat.CSR, want *Ordering, p int) {
	t.Helper()
	got := Distributed(a, DistOptions{Procs: p})
	assertSamePerm(t, name, want.Perm, got.Perm, "distributed")
	if want.PseudoDiameter != got.PseudoDiameter {
		t.Errorf("%s p=%d: pseudo-diameter %d vs %d", name, p, want.PseudoDiameter, got.PseudoDiameter)
	}
	if want.Components != got.Components {
		t.Errorf("%s p=%d: components %d vs %d", name, p, want.Components, got.Components)
	}
}

func TestQuickFourWayEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	withThreads(t, 3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		a := randSym(seed, n, 2*n)
		want := Sequential(a).Perm
		if !spmat.IsPerm(want) {
			return false
		}
		if !reflect.DeepEqual(want, Distributed(a, DistOptions{Procs: 1}).Perm) {
			return false
		}
		if !reflect.DeepEqual(want, Shared(a, 3).Perm) {
			return false
		}
		p := []int{4, 9}[rng.Intn(2)]
		return reflect.DeepEqual(want, Distributed(a, DistOptions{Procs: p}).Perm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQualityInsensitiveToConcurrency(t *testing.T) {
	// The paper's §I claim: ordering quality does not depend on the
	// degree of concurrency. With the deterministic semiring it is in
	// fact identical.
	a, _ := graphgen.Scramble(graphgen.Grid3D(6, 5, 4, 1, false), 31)
	var bws []int
	for _, p := range []int{1, 4, 9, 16, 25} {
		ord := Distributed(a, DistOptions{Procs: p})
		bws = append(bws, a.Permute(ord.Perm).Bandwidth())
	}
	for _, bw := range bws[1:] {
		if bw != bws[0] {
			t.Fatalf("bandwidth varies with concurrency: %v", bws)
		}
	}
}

func TestDistributedBreakdownPopulated(t *testing.T) {
	a, _ := graphgen.Scramble(graphgen.Grid2D(12, 12), 41)
	ord := Distributed(a, DistOptions{Procs: 4})
	b := ord.Breakdown
	if b.Ranks != 4 {
		t.Errorf("ranks = %d", b.Ranks)
	}
	if b.ClockNs <= 0 {
		t.Error("virtual clock did not advance")
	}
	if b.Work == 0 {
		t.Error("no work recorded")
	}
	if b.Msgs == 0 || b.Words == 0 {
		t.Error("no traffic recorded at p=4")
	}
	if b.SpMSpVCompNs() <= 0 {
		t.Error("no SpMSpV computation recorded")
	}
	if b.SpMSpVCommNs() <= 0 {
		t.Error("no SpMSpV communication recorded")
	}
	if b.TotalNs() <= 0 {
		t.Error("empty total")
	}
}

func TestDistributedDeterministicClocks(t *testing.T) {
	a, _ := graphgen.Scramble(graphgen.Grid2D(10, 10), 43)
	r1 := Distributed(a, DistOptions{Procs: 9})
	r2 := Distributed(a, DistOptions{Procs: 9})
	if r1.Breakdown.ClockNs != r2.Breakdown.ClockNs {
		t.Errorf("virtual time not deterministic: %f vs %f", r1.Breakdown.ClockNs, r2.Breakdown.ClockNs)
	}
	if !reflect.DeepEqual(r1.Perm, r2.Perm) {
		t.Error("permutation not deterministic")
	}
}

func TestSortModeAblationQuality(t *testing.T) {
	a, _ := graphgen.Scramble(graphgen.Grid2D(16, 16), 47)
	full := Distributed(a, DistOptions{Procs: 4, SortMode: SortFull})
	local := Distributed(a, DistOptions{Procs: 4, SortMode: SortLocal})
	none := Distributed(a, DistOptions{Procs: 4, SortMode: SortNone})
	for name, ord := range map[string]*DistOrdering{"full": full, "local": local, "none": none} {
		if !spmat.IsPerm(ord.Perm) {
			t.Errorf("%s: invalid permutation", name)
		}
	}
	bwFull := a.Permute(full.Perm).Bandwidth()
	bwLocal := a.Permute(local.Perm).Bandwidth()
	bwNone := a.Permute(none.Perm).Bandwidth()
	// The relaxed modes may not beat the full sort; they must still be
	// drastically better than the scrambled input (they are still level-
	// ordered BFS traversals).
	before := a.Bandwidth()
	if bwLocal > before/2 || bwNone > before/2 {
		t.Errorf("relaxed sort modes lost BFS locality: full=%d local=%d none=%d before=%d", bwFull, bwLocal, bwNone, before)
	}
	// At p=1 the local sort is exactly the full sort.
	f1 := Distributed(a, DistOptions{Procs: 1, SortMode: SortFull})
	l1 := Distributed(a, DistOptions{Procs: 1, SortMode: SortLocal})
	if !reflect.DeepEqual(f1.Perm, l1.Perm) {
		t.Error("p=1: local sort differs from full sort")
	}
}

func TestSortModeStrings(t *testing.T) {
	if SortFull.String() != "full" || SortLocal.String() != "local" || SortNone.String() != "none" {
		t.Error("sort mode names")
	}
	if SortMode(9).String() == "" {
		t.Error("unknown sort mode string empty")
	}
}

func TestDistributedMoreRanksThanVertices(t *testing.T) {
	// 9 ranks, 5 vertices: some ranks own empty chunks and empty blocks.
	a := graphgen.Path(5)
	want := Sequential(a)
	got := Distributed(a, DistOptions{Procs: 9})
	assertSamePerm(t, "tiny", want.Perm, got.Perm, "distributed")
}

func TestSharedMoreThreadsThanVertices(t *testing.T) {
	withThreads(t, 16)
	a := graphgen.Path(3)
	want := Sequential(a)
	got := Shared(a, 16)
	assertSamePerm(t, "tiny", want.Perm, got.Perm, "shared")
}

func TestSelfLoopsIgnored(t *testing.T) {
	// The same graph with and without explicit diagonal entries must
	// order identically.
	base := graphgen.Path(12)
	var noDiag []spmat.Coord
	for i := 0; i < base.N; i++ {
		for _, j := range base.Row(i) {
			if i != j {
				noDiag = append(noDiag, spmat.Coord{Row: i, Col: j, Val: 1})
			}
		}
	}
	b := spmat.FromCoords(base.N, noDiag, true)
	if !reflect.DeepEqual(Sequential(base).Perm, Sequential(b).Perm) {
		t.Error("diagonal entries changed the ordering")
	}
}
