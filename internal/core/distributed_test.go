package core

import (
	"reflect"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/spmat"
	"repro/internal/tally"
)

func TestRandomPermSeedPreservesQualityClass(t *testing.T) {
	// The §IV-A load-balancing permutation must return a permutation of
	// the caller's matrix with comparable quality.
	a, _ := graphgen.Scramble(graphgen.Grid2D(14, 14), 51)
	plain := Distributed(a, DistOptions{Procs: 4})
	balanced := Distributed(a, DistOptions{Procs: 4, RandomPermSeed: 99})
	if !spmat.IsPerm(balanced.Perm) {
		t.Fatal("invalid permutation with RandomPermSeed")
	}
	bwPlain := a.Permute(plain.Perm).Bandwidth()
	bwBal := a.Permute(balanced.Perm).Bandwidth()
	if bwBal > 2*bwPlain {
		t.Errorf("load-balance permutation destroyed quality: %d vs %d", bwBal, bwPlain)
	}
	// A different seed gives a (generally) different but equally valid
	// ordering.
	other := Distributed(a, DistOptions{Procs: 4, RandomPermSeed: 100})
	if !spmat.IsPerm(other.Perm) {
		t.Fatal("invalid permutation with different seed")
	}
}

// TestRandomPermSeedMatchesScrambledSequential pins the §IV-A
// load-balancing permutation to its definition: with a seed, Distributed
// orders graphgen.Scramble's matrix from the translated start, as the
// Sequential engine does, and maps that order back through the scramble.
func TestRandomPermSeedMatchesScrambledSequential(t *testing.T) {
	mats := []struct {
		name string
		a    *spmat.CSR
	}{
		{"grid", graphgen.Grid2D(12, 9)},
		{"ldoor", graphgen.SuiteByName("ldoor").Build(8)},
		{"disconnected", graphgen.Disconnected(graphgen.Path(7), graphgen.Grid2D(5, 4), graphgen.Star(6))},
	}
	for _, m := range mats {
		for _, seed := range []int64{7, 99} {
			scrambled, scramble := graphgen.Scramble(m.a, seed)
			inv := spmat.InvertPerm(scramble)
			for _, start := range []int{-1, m.a.N / 3} {
				seqStart := start
				if start >= 0 {
					seqStart = inv[start]
				}
				seq := SequentialOpt(scrambled, Options{Start: seqStart})
				want := make([]int, len(seq.Perm))
				for k, v := range seq.Perm {
					want[k] = scramble[v]
				}
				for _, p := range []int{1, 4, 9} {
					got := Distributed(m.a, DistOptions{Procs: p, RandomPermSeed: seed, Options: Options{Start: start}})
					if !reflect.DeepEqual(got.Perm, want) {
						t.Errorf("%s seed=%d start=%d p=%d: permutation differs from the scrambled Sequential order", m.name, seed, start, p)
					}
				}
			}
		}
	}
}

func TestRandomPermSeedDeterministic(t *testing.T) {
	a, _ := graphgen.Scramble(graphgen.Grid2D(10, 10), 53)
	r1 := Distributed(a, DistOptions{Procs: 4, RandomPermSeed: 7})
	r2 := Distributed(a, DistOptions{Procs: 4, RandomPermSeed: 7})
	if !reflect.DeepEqual(r1.Perm, r2.Perm) {
		t.Error("RandomPermSeed not deterministic")
	}
}

func TestRandomPermSeedZeroMeansOff(t *testing.T) {
	a, _ := graphgen.Scramble(graphgen.Grid2D(8, 8), 55)
	want := Sequential(a)
	got := Distributed(a, DistOptions{Procs: 4, RandomPermSeed: 0})
	if !reflect.DeepEqual(want.Perm, got.Perm) {
		t.Error("seed 0 must keep the deterministic contract")
	}
}

func TestDistributedNoReverse(t *testing.T) {
	a, _ := graphgen.Scramble(graphgen.Grid2D(9, 9), 57)
	rcm := Distributed(a, DistOptions{Procs: 4})
	cm := Distributed(a, DistOptions{Procs: 4, Options: Options{Start: -1, NoReverse: true}})
	n := a.N
	for k := 0; k < n; k++ {
		if rcm.Perm[k] != cm.Perm[n-1-k] {
			t.Fatal("distributed RCM is not the reverse of distributed CM")
		}
	}
}

func TestDistributedStartPinning(t *testing.T) {
	a := graphgen.Path(9)
	ord := Distributed(a, DistOptions{Procs: 4, Options: Options{Start: 4, SkipPeripheral: true}})
	if ord.Perm[len(ord.Perm)-1] != 4 {
		t.Errorf("pinned start not last in RCM: %v", ord.Perm)
	}
}

func TestDistributedThreadsReduceModeledTime(t *testing.T) {
	a, _ := graphgen.Scramble(graphgen.Grid3D(8, 6, 5, 1, false), 61)
	t1 := Distributed(a, DistOptions{Procs: 1, Model: tally.Edison().WithThreads(1)})
	t6 := Distributed(a, DistOptions{Procs: 1, Model: tally.Edison().WithThreads(6)})
	if t6.Breakdown.ClockNs >= t1.Breakdown.ClockNs {
		t.Errorf("6 threads (%f) not faster than 1 (%f)", t6.Breakdown.ClockNs, t1.Breakdown.ClockNs)
	}
	if !reflect.DeepEqual(t1.Perm, t6.Perm) {
		t.Error("threads changed the ordering")
	}
}

func TestDistributedSetupPhaseRecorded(t *testing.T) {
	a := graphgen.Grid2D(10, 10)
	ord := Distributed(a, DistOptions{Procs: 4})
	if ord.Breakdown.PhaseNs(tally.Setup) <= 0 {
		t.Error("setup phase empty")
	}
}

func TestDistributedProcsDefaulted(t *testing.T) {
	a := graphgen.Path(6)
	ord := Distributed(a, DistOptions{Procs: 0})
	if ord.Procs != 1 {
		t.Errorf("procs = %d", ord.Procs)
	}
	if !spmat.IsPerm(ord.Perm) {
		t.Error("invalid permutation")
	}
}

func TestDistributedNonSquareProcsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-square process count")
		}
	}()
	Distributed(graphgen.Path(6), DistOptions{Procs: 2})
}

func TestDistributedEmptyMatrix(t *testing.T) {
	ord := Distributed(spmat.FromCoords(0, nil, true), DistOptions{Procs: 1})
	if len(ord.Perm) != 0 || ord.Components != 0 {
		t.Errorf("empty: %+v", ord.Ordering)
	}
}

func TestDistributedHypersparseIdenticalOrdering(t *testing.T) {
	a, _ := graphgen.Scramble(graphgen.Grid3D(6, 5, 4, 1, false), 63)
	for _, p := range []int{1, 9, 16} {
		plain := Distributed(a, DistOptions{Procs: p})
		hyper := Distributed(a, DistOptions{Procs: p, Hypersparse: true})
		if !reflect.DeepEqual(plain.Perm, hyper.Perm) {
			t.Errorf("p=%d: DCSC blocks changed the ordering", p)
		}
	}
}

func TestDistributedIsolatedVertices(t *testing.T) {
	// Matrix with no edges at all: every vertex is its own component.
	a := spmat.FromCoords(5, nil, true)
	want := Sequential(a)
	got := Distributed(a, DistOptions{Procs: 4})
	if !reflect.DeepEqual(want.Perm, got.Perm) {
		t.Errorf("isolated vertices: %v vs %v", got.Perm, want.Perm)
	}
	if got.Components != 5 {
		t.Errorf("components = %d", got.Components)
	}
}
