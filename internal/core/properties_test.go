package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graphgen"
	"repro/internal/spmat"
)

// TestCMOrderIsLevelMonotone verifies the defining structural property of
// Cuthill-McKee: along the CM sequence, BFS levels (from each component's
// root) never decrease — vertices are numbered level by level
// (Algorithm 1's invariant).
func TestCMOrderIsLevelMonotone(t *testing.T) {
	cases := []*spmat.CSR{
		graphgen.Path(25),
		mustScramble(graphgen.Grid2D(9, 8), 3),
		mustScramble(graphgen.Grid3D(4, 4, 3, 1, false), 5),
		randSym(71, 60, 150),
		graphgen.Disconnected(graphgen.Path(6), graphgen.Star(5)),
	}
	for ci, a := range cases {
		cm := SequentialOpt(a, Options{Start: -1, NoReverse: true})
		comp, _ := a.ParallelComponents(1)
		// The root of each component is its first vertex in CM order.
		rootOf := map[int]int{}
		for _, v := range cm.Perm {
			if _, ok := rootOf[comp[v]]; !ok {
				rootOf[comp[v]] = v
			}
		}
		levels := map[int][]int{}
		for c, r := range rootOf {
			l, _ := a.BFS(r)
			levels[c] = l
		}
		lastLevel := map[int]int{}
		for _, v := range cm.Perm {
			c := comp[v]
			lv := levels[c][v]
			if lv < lastLevel[c] {
				t.Errorf("case %d: CM order visits level %d after level %d in component %d", ci, lv, lastLevel[c], c)
				break
			}
			lastLevel[c] = lv
		}
	}
}

func mustScramble(a *spmat.CSR, seed int64) *spmat.CSR {
	s, _ := graphgen.Scramble(a, seed)
	return s
}

// TestRCMRespectsBandwidthLowerBound: any symmetric permutation of a matrix
// with maximum degree d has bandwidth at least ⌈d/2⌉ (the densest row must
// spread over d+1 columns). A cross-check between the ordering and the
// bandwidth metric.
func TestRCMRespectsBandwidthLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		a := randSym(seed, n, 2*n)
		maxd := 0
		for _, d := range a.Degrees() {
			if d > maxd {
				maxd = d
			}
		}
		p := a.Permute(Sequential(a).Perm)
		return p.Bandwidth() >= (maxd+1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReversalPreservesBandwidthAndProfileOfSymmetricPattern: reversing an
// ordering preserves bandwidth (|i-j| is reversal-invariant); this is why
// CM and RCM have equal bandwidth while RCM wins on profile/fill. Checked
// on the actual CM/RCM pair.
func TestReversalPreservesBandwidthNotProfile(t *testing.T) {
	a := mustScramble(graphgen.Grid2D(12, 9), 13)
	rcm := a.Permute(Sequential(a).Perm)
	cm := a.Permute(SequentialOpt(a, Options{Start: -1, NoReverse: true}).Perm)
	if rcm.Bandwidth() != cm.Bandwidth() {
		t.Errorf("bandwidth differs: rcm %d cm %d", rcm.Bandwidth(), cm.Bandwidth())
	}
	// George's observation: the reverse ordering's envelope is never
	// worse for meshes like these (this is the reason RCM exists).
	if rcm.Profile() > cm.Profile() {
		t.Errorf("RCM profile %d worse than CM %d", rcm.Profile(), cm.Profile())
	}
}

// TestPeripheralEndpointsHaveHighEccentricity: the pseudo-peripheral vertex
// must have eccentricity at least that of the arbitrary start — that is the
// point of Algorithm 2/4.
func TestPeripheralEndpointsHaveHighEccentricity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		a := randSym(seed, n, n+rng.Intn(2*n))
		comp, _ := a.ParallelComponents(1)
		// Only check the component of vertex 0.
		start := 0
		deg := a.Degrees()
		scratch := newSeqScratch(n)
		r, _ := PeripheralPolicy{}.PickRoot(start, &seqSweeper{a: a, deg: deg, s: scratch})
		if comp[r] != comp[start] {
			return false // must stay in the component
		}
		eccStart, _, _ := bfsLevels(a, start, scratch)
		eccR, _, _ := bfsLevels(a, r, scratch)
		return eccR >= eccStart
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestOrderingStableUnderValueChanges: RCM is a structural algorithm; the
// numeric values must not influence it.
func TestOrderingStableUnderValueChanges(t *testing.T) {
	a := graphgen.Grid2D(8, 8) // has values
	var pattern []spmat.Coord
	for i := 0; i < a.N; i++ {
		for _, j := range a.Row(i) {
			pattern = append(pattern, spmat.Coord{Row: i, Col: j, Val: 1})
		}
	}
	b := spmat.FromCoords(a.N, pattern, true)
	pa := Sequential(a).Perm
	pb := Sequential(b).Perm
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("values changed the ordering")
		}
	}
}
