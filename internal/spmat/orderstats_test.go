package spmat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// serialOrderStats is the oracle for OrderStats: PAPᵀ materialized by
// Permute, then the serial per-metric kernels.
func serialOrderStats(a *CSR, perm []int) OrderStats {
	p := a.Permute(perm)
	return OrderStats{
		Bandwidth: p.Bandwidth(),
		Profile:   p.Profile(),
		FillProxy: p.FillProxy(),
		Wavefront: p.Wavefront(),
	}
}

// TestOrderStatsMatchesSerial pins the fused pass to the oracle on the
// permute property corpus — symmetric and non-symmetric patterns, with and
// without values, and the structural edge cases — at threads 1 to 4 with
// the fan-out gate forced down, under the nil (identity) inverse and the
// inverses of the identity, the reversal and random permutations.
func TestOrderStatsMatchesSerial(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(21))
	for _, f := range permFixtures() {
		n := f.a.N
		rev := make([]int, n)
		for k := range rev {
			rev[k] = n - 1 - k
		}
		want := serialOrderStats(f.a, identity(n))
		for _, threads := range []int{1, 2, 3, 4} {
			if got := f.a.OrderStats(nil, threads); got != want {
				t.Errorf("%s threads=%d: OrderStats(nil) = %+v, want %+v", f.name, threads, got, want)
			}
		}
		for _, perm := range [][]int{identity(n), rev, rng.Perm(n), rng.Perm(n)} {
			want := serialOrderStats(f.a, perm)
			inv := InvertPerm(perm)
			for _, threads := range []int{1, 2, 3, 4} {
				if got := f.a.OrderStats(inv, threads); got != want {
					t.Errorf("%s threads=%d perm=%v: OrderStats = %+v, want %+v", f.name, threads, perm, got, want)
				}
			}
		}
	}
}

// TestQuickOrderStatsMatchesSerial extends the comparison to random shapes:
// sizes, densities, symmetry, values and the thread count drawn per seed.
func TestQuickOrderStatsMatchesSerial(t *testing.T) {
	forceParallel(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		a := randPattern(r, n, r.Intn(4*n), r.Intn(2) == 0, r.Intn(2) == 0)
		perm := r.Perm(n)
		threads := 1 + r.Intn(4)
		return a.OrderStats(InvertPerm(perm), threads) == serialOrderStats(a, perm) &&
			a.OrderStats(nil, threads) == serialOrderStats(a, identity(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Error(err)
	}
}
