package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graphgen"
	"repro/internal/spmat"
)

func TestPushCandidate(t *testing.T) {
	var cands []Candidate
	push := func(id int, deg int64) { cands = pushCandidate(cands, Candidate{ID: id, Deg: deg}, 3) }
	push(9, 5)
	push(4, 2)
	push(7, 2) // ties with 4 on degree; 4 wins on id
	push(1, 8) // worse than the worst kept; dropped
	want := []Candidate{{ID: 4, Deg: 2}, {ID: 7, Deg: 2}, {ID: 9, Deg: 5}}
	if !reflect.DeepEqual(cands, want) {
		t.Fatalf("shortlist = %v, want %v", cands, want)
	}
	push(2, 1) // displaces the worst (9)
	want = []Candidate{{ID: 2, Deg: 1}, {ID: 4, Deg: 2}, {ID: 7, Deg: 2}}
	if !reflect.DeepEqual(cands, want) {
		t.Fatalf("shortlist after displace = %v, want %v", cands, want)
	}
}

// TestPushCandidateMatchesSort: the incremental shortlist equals the first K
// of the fully (degree, id)-sorted candidate list, for random inputs.
func TestPushCandidateMatchesSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		k := 1 + rng.Intn(6)
		var all []Candidate
		var short []Candidate
		for id := 0; id < n; id++ {
			c := Candidate{ID: id, Deg: int64(rng.Intn(5))}
			all = append(all, c)
			short = pushCandidate(short, c, k)
		}
		ref := append([]Candidate(nil), all...)
		for i := 1; i < len(ref); i++ { // insertion sort by (deg, id)
			for j := i; j > 0 && candLess(ref[j], ref[j-1]); j-- {
				ref[j], ref[j-1] = ref[j-1], ref[j]
			}
		}
		if k > len(ref) {
			k = len(ref)
		}
		return reflect.DeepEqual(short, ref[:k])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPeripheralPolicyMatchesLegacySearch: the policy-framed George-Liu
// iteration is the exact search the engines ran before the subsystem
// existed — same root, same eccentricity, on assorted graphs.
func TestPeripheralPolicyMatchesLegacySearch(t *testing.T) {
	cases := []*spmat.CSR{
		graphgen.Path(23),
		graphgen.Star(9),
		mustScramble(graphgen.Grid2D(8, 7), 3),
		randSym(5, 40, 100),
	}
	for ci, a := range cases {
		deg := a.Degrees()
		s := newSeqScratch(a.N)
		legacy := func(start int) (int, int) { // the pre-subsystem loop
			r, prevEcc := start, 0
			for {
				e, _, last := bfsLevels(a, r, s)
				cand := last[0]
				for _, v := range last[1:] {
					if deg[v] < deg[cand] || (deg[v] == deg[cand] && v < cand) {
						cand = v
					}
				}
				if e <= prevEcc {
					return cand, prevEcc
				}
				prevEcc = e
				r = cand
			}
		}
		wantRoot, wantEcc := legacy(0)
		gotRoot, gotEcc := PeripheralPolicy{}.PickRoot(0, &seqSweeper{a: a, deg: deg, s: s})
		if gotRoot != wantRoot || gotEcc != wantEcc {
			t.Errorf("case %d: policy (%d, %d), legacy (%d, %d)", ci, gotRoot, gotEcc, wantRoot, wantEcc)
		}
	}
}

// recordingSweeper scripts LevelStructures for policy unit tests.
type recordingSweeper struct {
	structures map[int]LevelStructure
	swept      []int
}

func (sw *recordingSweeper) Sweep(root, maxCand int) LevelStructure {
	sw.swept = append(sw.swept, root)
	ls, ok := sw.structures[root]
	if !ok {
		panic(fmt.Sprintf("unscripted sweep from %d", root))
	}
	if len(ls.Candidates) > maxCand {
		ls.Candidates = ls.Candidates[:maxCand]
	}
	return ls
}

func TestBiCriteriaPolicyPicksMinScore(t *testing.T) {
	// Start 0: wide and flat. Candidate 1: narrow and tall (best score).
	// Candidate 2: same score as 1 — loses the (score, degree, id) tie on
	// degree. The policy must adopt 1 and stop when its candidates do not
	// improve.
	sw := &recordingSweeper{structures: map[int]LevelStructure{
		0: {Root: 0, RootDeg: 3, Height: 2, Width: 10,
			Candidates: []Candidate{{ID: 2, Deg: 3}, {ID: 1, Deg: 4}}},
		2: {Root: 2, RootDeg: 3, Height: 5, Width: 4,
			Candidates: []Candidate{{ID: 1, Deg: 4}}},
		1: {Root: 1, RootDeg: 4, Height: 5, Width: 4,
			Candidates: []Candidate{{ID: 0, Deg: 3}}},
	}}
	root, ecc := BiCriteriaPolicy{}.PickRoot(0, sw)
	// score(0) = 10-2 = 8; score(2) = 4-5 = -1; score(1) = -1 ties but
	// deg 4 > 3 keeps 2 as incumbent.
	if root != 2 || ecc != 5 {
		t.Fatalf("picked (%d, %d), want (2, 5)", root, ecc)
	}
	// Vertex 0 is already seen: it must not be re-swept from 1's shortlist.
	for _, v := range sw.swept[1:] {
		if v == 0 {
			t.Error("re-swept the seed")
		}
	}
}

func TestBiCriteriaWeightsChangeThePick(t *testing.T) {
	// Candidate 1 is taller but wider; candidate 2 is shorter but narrower.
	sw := func() *recordingSweeper {
		return &recordingSweeper{structures: map[int]LevelStructure{
			0: {Root: 0, RootDeg: 9, Height: 1, Width: 50,
				Candidates: []Candidate{{ID: 1, Deg: 2}, {ID: 2, Deg: 2}}},
			1: {Root: 1, RootDeg: 2, Height: 8, Width: 20, Candidates: []Candidate{{ID: 0, Deg: 9}}},
			2: {Root: 2, RootDeg: 2, Height: 4, Width: 10, Candidates: []Candidate{{ID: 0, Deg: 9}}},
		}}
	}
	if root, _ := (BiCriteriaPolicy{WidthWeight: 1, HeightWeight: 10}).PickRoot(0, sw()); root != 1 {
		t.Errorf("height-leaning pick = %d, want 1", root)
	}
	if root, _ := (BiCriteriaPolicy{WidthWeight: 10, HeightWeight: 1}).PickRoot(0, sw()); root != 2 {
		t.Errorf("width-leaning pick = %d, want 2", root)
	}
}

func TestBiCriteriaValidate(t *testing.T) {
	if err := (BiCriteriaPolicy{}).Validate(); err != nil {
		t.Errorf("zero policy invalid: %v", err)
	}
	if err := (BiCriteriaPolicy{WidthWeight: -1, HeightWeight: 1}).Validate(); err == nil {
		t.Error("negative weight accepted")
	}
	if err := (BiCriteriaPolicy{MaxCandidates: -2}).Validate(); err == nil {
		t.Error("negative candidate bound accepted")
	}
}

// startPolicies enumerates the heuristic configurations of the
// deterministic-contract fuzz below.
func startPolicies() map[string]Options {
	return map[string]Options{
		"pseudo-peripheral": {Start: -1},
		"bi-criteria":       {Start: -1, Policy: BiCriteriaPolicy{}},
		"bi-criteria-w3h1":  {Start: -1, Policy: BiCriteriaPolicy{WidthWeight: 3, HeightWeight: 1, MaxCandidates: 2}},
		"first-vertex":      {Start: -1, SkipPeripheral: true},
	}
}

// randDisconnected builds a random symmetric graph with several forced
// components: a random block, a path, a star, and isolated vertices.
func randDisconnected(rng *rand.Rand) *spmat.CSR {
	n := 8 + rng.Intn(40)
	parts := []*spmat.CSR{
		randSym(rng.Int63(), n, n+rng.Intn(3*n)),
		graphgen.Path(1 + rng.Intn(9)),
		graphgen.Star(1 + rng.Intn(6)),
		spmat.FromCoords(1+rng.Intn(3), nil, true), // isolated vertices
	}
	a := graphgen.Disconnected(parts...)
	sc, _ := graphgen.Scramble(a, rng.Int63())
	return sc
}

// TestDeterministicContractAcrossHeuristics is the deterministic-contract
// fuzz of the start-policy subsystem: random disconnected graphs ordered by
// every engine under every heuristic and every process count must produce
// the byte-identical, valid permutation.
func TestDeterministicContractAcrossHeuristics(t *testing.T) {
	withThreads(t, 3)
	rng := rand.New(rand.NewSource(20260728))
	rounds := 12
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		a := randDisconnected(rng)
		for name, opt := range startPolicies() {
			ref := SequentialOpt(a, opt)
			if err := spmat.ValidatePerm(ref.Perm, a.N); err != nil {
				t.Fatalf("round %d %s: sequential: %v", round, name, err)
			}
			got := map[string][]int{
				"shared": SharedOpt(a, 3, opt).Perm,
			}
			for _, procs := range []int{1, 4, 9} {
				got[fmt.Sprintf("distributed/p%d", procs)] = Distributed(a, DistOptions{Procs: procs, Options: opt}).Perm
			}
			for engine, perm := range got {
				if !reflect.DeepEqual(perm, ref.Perm) {
					t.Fatalf("round %d %s: %s diverged from sequential\n got %v\nwant %v",
						round, name, engine, perm, ref.Perm)
				}
			}
		}
	}
}
