package amd

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/spmat"
)

// testGraphs is the shared corpus: structured shapes that exercise the
// merge path (Complete), the degenerate-parallelism path (Star), chains of
// rounds (Path, grids), randomness (RMAT, RandomRegular) and multiple
// components.
func testGraphs() map[string]*spmat.CSR {
	return map[string]*spmat.CSR{
		"path12":     graphgen.Path(12),
		"path2":      graphgen.Path(2),
		"single":     graphgen.Path(1),
		"star8":      graphgen.Star(8),
		"complete6":  graphgen.Complete(6),
		"grid6x5":    graphgen.Grid2D(6, 5),
		"grid9_5x4":  graphgen.Grid2D9(5, 4),
		"rmat6":      graphgen.RMAT(6, 4, 42),
		"regular24":  graphgen.RandomRegular(24, 5, 7),
		"multi":      graphgen.MultiComponent(5, 3, 4, 11),
		"disc":       graphgen.Disconnected(graphgen.Path(5), graphgen.Complete(4), graphgen.Star(6)),
		"grid3d":     graphgen.Grid3D(4, 3, 3, 1, false),
		"grid3dwide": graphgen.Grid3D(6, 2, 2, 2, false),
	}
}

// graphNames iterates the corpus deterministically.
func graphNames() []string {
	return []string{"path12", "path2", "single", "star8", "complete6", "grid6x5",
		"grid9_5x4", "rmat6", "regular24", "multi", "disc", "grid3d", "grid3dwide"}
}

// TestKnownAnswers pins hand-worked eliminations. The 5-path eliminates the
// two endpoints in round one (both have degree 1 and are distance ≥ 3
// apart), then works inward; the complete graph eliminates vertex 0, after
// which the remaining clique collapses into one supervariable emitted in id
// order.
func TestKnownAnswers(t *testing.T) {
	cases := []struct {
		name string
		a    *spmat.CSR
		want []int
	}{
		{"path5", graphgen.Path(5), []int{0, 4, 1, 2, 3}},
		{"complete4", graphgen.Complete(4), []int{0, 1, 2, 3}},
		{"path4", graphgen.Path(4), []int{0, 3, 1, 2}},
		{"path1", graphgen.Path(1), []int{0}},
	}
	for _, tc := range cases {
		got := Order(tc.a, 1)
		if !equalInts(got, tc.want) {
			t.Errorf("%s: Order = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSerialEquivalence pins the parallel engine at one thread to the
// independent serial reference, exactly: the aggregated w-trick degree
// updates, frozen element masses and hash-grouped supervariable detection
// must reproduce the naive set computations to the last tie-break.
func TestSerialEquivalence(t *testing.T) {
	graphs := testGraphs()
	for _, name := range graphNames() {
		a := graphs[name]
		got := Order(a, 1)
		want := serialReference(a)
		if !equalInts(got, want) {
			t.Errorf("%s: parallel(1) = %v\nserial reference = %v", name, got, want)
		}
	}
	// Random symmetric patterns, Erdős–Rényi-ish at several densities.
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 60; trial++ {
		a := randomPattern(rng, 2+rng.Intn(40), 0.05+0.4*rng.Float64())
		got := Order(a, 1)
		want := serialReference(a)
		if !equalInts(got, want) {
			t.Fatalf("trial %d (n=%d): parallel(1) = %v\nserial reference = %v", trial, a.N, got, want)
		}
	}
}

// TestThreadInvariance asserts byte-identical permutations at thread counts
// 1, 2, 4 and 9 — the cross-family determinism contract — with GOMAXPROCS
// raised to 9 so that no worker count is capped.
func TestThreadInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(9))
	graphs := testGraphs()
	for _, name := range graphNames() {
		a := graphs[name]
		ref := Order(a, 1)
		if !spmat.IsPerm(ref) {
			t.Fatalf("%s: Order(1) is not a permutation: %v", name, ref)
		}
		for _, threads := range []int{2, 4, 9} {
			if got := Order(a, threads); !equalInts(got, ref) {
				t.Errorf("%s: Order(threads=%d) differs from Order(threads=1)\n got %v\nwant %v", name, threads, got, ref)
			}
		}
	}
}

// TestSolverScratchCappedAtGOMAXPROCS: a worker's scratch set is four
// n-int arrays and no more than GOMAXPROCS workers run at once, so newSolver
// keeps one set per worker up to GOMAXPROCS, whatever threads asks for.
func TestSolverScratchCappedAtGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	a := graphgen.Grid2D(6, 5)
	for threads, want := range map[int]int{-1: 3, 0: 3, 1: 1, 2: 2, 3: 3, 4: 3, 64: 3, 10000: 3} {
		s := newSolver(a, threads)
		if len(s.scratch) != want || s.threads != want {
			t.Errorf("threads=%d: %d scratch sets, %d workers; want %d", threads, len(s.scratch), s.threads, want)
		}
	}
}

// TestQuotientInvariants steps the solver round by round and checks the
// quotient-graph invariants the machinery is supposed to preserve:
//
//   - mass conservation: alive plus eliminated supervariable masses always
//     sum to n, and the solver's alive counter agrees;
//   - degree bounds: every alive variable's approximate degree is at least
//     the true external mass degree of the quotient graph (the AMD
//     approximation only ever overcounts) and non-negative;
//   - element masses: an alive element's frozen mass equals the mass of its
//     distinct resolved members, all of which are alive;
//   - pivot independence: the members of one round's new elements are
//     pairwise disjoint (the distance-2 selection guarantee).
func TestQuotientInvariants(t *testing.T) {
	graphs := testGraphs()
	for _, name := range graphNames() {
		a := graphs[name]
		s := newSolver(a, 3)
		round := 0
		for !s.done() {
			s.round()
			round++
			checkInvariants(t, name, round, s)
			if round > a.N+1 {
				t.Fatalf("%s: no termination after %d rounds", name, round)
			}
		}
		if got := s.perm(); !spmat.IsPerm(got) || len(got) != a.N {
			t.Errorf("%s: final perm invalid: %v", name, got)
		}
	}
}

func checkInvariants(t *testing.T, name string, round int, s *solver) {
	t.Helper()
	aliveMass, pivotMass := 0, 0
	for v := 0; v < s.n; v++ {
		switch s.state[v] {
		case stAlive:
			aliveMass += s.mass[v]
		case stPivot, stDead:
			// Dead elements were pivots once: absorption kills the element,
			// not the eliminated supervariable's mass.
			pivotMass += s.mass[v]
		}
	}
	if aliveMass+pivotMass != s.n {
		t.Fatalf("%s round %d: mass leak: alive %d + eliminated %d != n %d", name, round, aliveMass, pivotMass, s.n)
	}
	if aliveMass != s.alive {
		t.Fatalf("%s round %d: alive counter %d != recomputed %d", name, round, s.alive, aliveMass)
	}
	for v := 0; v < s.n; v++ {
		if s.state[v] != stAlive {
			continue
		}
		if s.deg[v] < 0 {
			t.Fatalf("%s round %d: deg[%d] = %d < 0", name, round, v, s.deg[v])
		}
		if ext := trueExternalMass(s, v); s.deg[v] < ext {
			t.Fatalf("%s round %d: deg[%d] = %d undercounts true external mass %d", name, round, v, s.deg[v], ext)
		}
	}
	lastRound := s.rounds[len(s.rounds)-1]
	seen := make(map[int]int)
	for _, p := range lastRound {
		for _, i := range s.membs[p] {
			r := s.find(i)
			if q, dup := seen[r]; dup && q != p {
				t.Fatalf("%s round %d: member %d shared by pivots %d and %d — selection not distance-2 independent", name, round, r, q, p)
			}
			seen[r] = p
		}
	}
	for e := 0; e < s.n; e++ {
		if s.state[e] != stPivot || s.membs[e] == nil {
			continue
		}
		got := 0
		distinct := make(map[int]bool)
		for _, j := range s.membs[e] {
			r := s.find(j)
			if s.state[r] != stAlive {
				t.Fatalf("%s round %d: element %d member %d resolves to non-alive %d", name, round, e, j, r)
			}
			if !distinct[r] {
				distinct[r] = true
				got += s.mass[r]
			}
		}
		if got != s.elMas[e] {
			t.Fatalf("%s round %d: element %d frozen mass %d != member mass %d", name, round, e, s.elMas[e], got)
		}
	}
}

// trueExternalMass is the exact external degree of v in the quotient graph,
// in mass units: the mass of the distinct alive variables adjacent to v
// directly or through an element.
func trueExternalMass(s *solver, v int) int {
	distinct := make(map[int]bool)
	add := func(j int) {
		r := s.find(j)
		if r != v && s.state[r] == stAlive {
			distinct[r] = true
		}
	}
	for _, j := range s.adjV[v] {
		add(j)
	}
	for _, e := range s.adjE[v] {
		if s.state[e] != stPivot {
			continue
		}
		for _, j := range s.membs[e] {
			add(j)
		}
	}
	total := 0
	for r := 0; r < s.n; r++ {
		if distinct[r] {
			total += s.mass[r]
		}
	}
	return total
}

// randomPattern builds a symmetric pattern with each edge present with
// probability p, no self-loops.
func randomPattern(rng *rand.Rand, n int, p float64) *spmat.CSR {
	var coords []spmat.Coord
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				coords = append(coords, spmat.Coord{Row: i, Col: j}, spmat.Coord{Row: j, Col: i})
			}
		}
	}
	return spmat.FromCoords(n, coords, true)
}

// BenchmarkAMDEngine measures the raw engine on a mid-sized mesh at several
// thread counts (the facade-level BenchmarkOrderAMD in package rcm is the
// one CI tracks; this one is for engine work).
func BenchmarkAMDEngine(b *testing.B) {
	a := graphgen.Grid3D(20, 12, 8, 1, false)
	for _, threads := range []int{1, 4} {
		b.Run(map[int]string{1: "t1", 4: "t4"}[threads], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Order(a, threads)
			}
		})
	}
}
