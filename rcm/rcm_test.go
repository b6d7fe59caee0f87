package rcm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// scrambled returns a mid-size mesh with its banded structure destroyed,
// the standard ordering workload.
func scrambled(t *testing.T) *Matrix {
	t.Helper()
	a, _ := Scramble(Grid3D(12, 8, 3, 1, false), 42)
	return a
}

// TestBackendsAgree is the facade-level statement of the reproduction's
// central oracle: every backend returns the identical permutation.
func TestBackendsAgree(t *testing.T) {
	a := scrambled(t)
	ref, err := Order(a)
	if err != nil {
		t.Fatal(err)
	}
	if !IsPermutation(ref.Perm) {
		t.Fatal("sequential returned a non-permutation")
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"algebraic", []Option{WithBackend(Algebraic)}},
		{"shared", []Option{WithBackend(Shared), WithThreads(4)}},
		{"distributed", []Option{WithBackend(Distributed), WithProcs(9), WithThreads(2)}},
	} {
		res, err := Order(a, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(res.Perm, ref.Perm) {
			t.Errorf("%s: permutation differs from sequential", tc.name)
		}
		if res.PseudoDiameter != ref.PseudoDiameter {
			t.Errorf("%s: pseudo-diameter %d != %d", tc.name, res.PseudoDiameter, ref.PseudoDiameter)
		}
	}
}

// TestAlgebraicIgnoresDistributedOptions pins the Algebraic backend's
// contract: it runs the distributed engine at p = 1, ignores the process
// grid, sort mode, load-balancing seed and block storage, and reports itself
// as a sequential backend — scheduled or not. The multi-component matrix's
// 64×64 giant reaches the default threshold, so the scheduler routes it
// through the backend too.
func TestAlgebraicIgnoresDistributedOptions(t *testing.T) {
	for _, m := range []struct {
		name string
		a    *Matrix
	}{
		{"scrambled", scrambled(t)},
		{"multi", MultiComponent(64, 40, 17, 1)},
	} {
		ref, err := Order(m.a)
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range []bool{false, true} {
			tag := fmt.Sprintf("%s/scheduled=%v", m.name, sched)
			opts := []Option{WithBackend(Algebraic), WithProcs(4), WithSortMode(SortNone), WithRandomPermSeed(7), WithHypersparse(true)}
			if sched {
				opts = append(opts, WithComponentScheduling(0))
			}
			res, err := Order(m.a, opts...)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if !reflect.DeepEqual(res.Perm, ref.Perm) {
				t.Errorf("%s: permutation differs from sequential", tag)
			}
			if res.PseudoDiameter != ref.PseudoDiameter || res.Components != ref.Components {
				t.Errorf("%s: pseudo-diameter/components %d/%d, sequential %d/%d",
					tag, res.PseudoDiameter, res.Components, ref.PseudoDiameter, ref.Components)
			}
			if res.Backend != Algebraic {
				t.Errorf("%s: backend %v, want algebraic", tag, res.Backend)
			}
			if res.Procs != 1 || res.Threads != 1 {
				t.Errorf("%s: recorded %d procs × %d threads, want 1 × 1", tag, res.Procs, res.Threads)
			}
			if res.Modeled != nil {
				t.Errorf("%s: algebraic result carries a modelled breakdown", tag)
			}
		}
	}
}

func TestOrderImprovesStats(t *testing.T) {
	a := scrambled(t)
	res, err := Order(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.After.Bandwidth >= res.Before.Bandwidth {
		t.Errorf("bandwidth %d -> %d: no reduction", res.Before.Bandwidth, res.After.Bandwidth)
	}
	if res.After.Profile >= res.Before.Profile {
		t.Errorf("profile %d -> %d: no reduction", res.Before.Profile, res.After.Profile)
	}
	if res.After.RMSWavefront >= res.Before.RMSWavefront {
		t.Errorf("rms wavefront %.1f -> %.1f: no reduction", res.Before.RMSWavefront, res.After.RMSWavefront)
	}
	if res.PseudoDiameter <= 0 {
		t.Errorf("pseudo-diameter %d, want > 0", res.PseudoDiameter)
	}
	if res.Components != 1 {
		t.Errorf("components = %d, want 1", res.Components)
	}
}

func TestOrderMatrixMatchesPermute(t *testing.T) {
	a := scrambled(t)
	p, res, err := OrderMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Permute(a, res.Perm)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(q) {
		t.Error("OrderMatrix result differs from Permute(a, res.Perm)")
	}
	if got := p.Stats(); got != res.After {
		t.Errorf("Stats of the permuted matrix %+v != After %+v", got, res.After)
	}
	// Order reads After through the inverse permutation, OrderMatrix off
	// the matrix it returns: both must report the same statistics.
	ref, err := Order(a)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Before != res.Before || ref.After != res.After {
		t.Errorf("Order stats %+v -> %+v differ from OrderMatrix %+v -> %+v", ref.Before, ref.After, res.Before, res.After)
	}
}

func TestDistributedResultCarriesBreakdown(t *testing.T) {
	a := scrambled(t)
	res, err := Order(a, WithBackend(Distributed), WithProcs(4), WithThreads(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Procs != 4 || res.Threads != 3 {
		t.Errorf("recorded %d procs × %d threads, want 4 × 3", res.Procs, res.Threads)
	}
	b := res.Modeled
	if b == nil {
		t.Fatal("no modelled breakdown on a distributed result")
	}
	if b.Seconds <= 0 || b.Messages <= 0 || b.Words <= 0 {
		t.Errorf("degenerate breakdown: %+v", b)
	}
	if got := b.CompSeconds() + b.CommSeconds(); !closeTo(got, b.Seconds) {
		t.Errorf("phase splits sum to %.6f, total %.6f", got, b.Seconds)
	}
	if !strings.Contains(b.Table(), "ordering-spmspv") {
		t.Errorf("breakdown table missing phase rows:\n%s", b.Table())
	}
	// The sequential backends must not carry one.
	seq, err := Order(a)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Modeled != nil {
		t.Error("sequential result has a modelled breakdown")
	}
}

// TestDistributedHostBudgetMovesNoOutput pins that running the facade's
// own passes — the symmetry check, Before/After and PAPᵀ — under the
// distributed run's min(procs × threads, GOMAXPROCS) moves nothing: Order
// and OrderMatrix with the Distributed backend at procs 4 and 16 return the
// identical Result (Perm, Before, After, Modeled) and matrix under
// GOMAXPROCS 1 and 2, on a symmetric input and on a non-symmetric one with
// values, both large enough for the parallel passes.
func TestDistributedHostBudgetMovesNoOutput(t *testing.T) {
	entry, err := SuiteByName("Nm7")
	if err != nil {
		t.Fatal(err)
	}
	sym := entry.Build(4)
	var edges []Edge
	for i := 0; i < sym.N(); i++ {
		for _, j := range sym.csr.Row(i) {
			if j <= i || j%3 == 0 {
				edges = append(edges, Edge{I: i, J: j, Val: float64(i - j)})
			}
		}
	}
	asym, err := FromEdges(sym.N(), edges, false)
	if err != nil {
		t.Fatal(err)
	}
	if asym.IsSymmetricPattern() || asym.N() < 2048 {
		t.Fatalf("fixture: symmetric %v, n = %d", asym.IsSymmetricPattern(), asym.N())
	}
	type run struct {
		order, orderMatrix *Result
		matrix             *Matrix
	}
	orderAt := func(m *Matrix, procs, maxprocs int) run {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxprocs))
		opts := []Option{WithBackend(Distributed), WithProcs(procs)}
		res, err := Order(m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		pm, resM, err := OrderMatrix(m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return run{res, resM, pm}
	}
	for name, m := range map[string]*Matrix{"symmetric": sym, "non-symmetric": asym} {
		for _, procs := range []int{4, 16} {
			serial, parallel := orderAt(m, procs, 1), orderAt(m, procs, 2)
			if !reflect.DeepEqual(serial.order, parallel.order) || !reflect.DeepEqual(serial.orderMatrix, parallel.orderMatrix) {
				t.Errorf("%s procs=%d: Result differs between GOMAXPROCS 1 and 2", name, procs)
			}
			if !reflect.DeepEqual(serial.order, serial.orderMatrix) {
				t.Errorf("%s procs=%d: Order and OrderMatrix disagree", name, procs)
			}
			if !reflect.DeepEqual(serial.matrix.csr, parallel.matrix.csr) {
				t.Errorf("%s procs=%d: PAPᵀ differs between GOMAXPROCS 1 and 2", name, procs)
			}
			if want, _ := m.Permute(serial.order.Perm); !reflect.DeepEqual(parallel.matrix.csr, want.csr) {
				t.Errorf("%s procs=%d: OrderMatrix's PAPᵀ differs from Permute's", name, procs)
			}
		}
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+b)
}

func TestDistributedRejectsNonSquareProcs(t *testing.T) {
	a := Path(20)
	if _, err := Order(a, WithBackend(Distributed), WithProcs(6)); err == nil {
		t.Error("procs=6 accepted; want error (must be a perfect square)")
	}
}

func TestSortModesProduceValidOrderings(t *testing.T) {
	a := scrambled(t)
	for _, m := range []SortMode{SortLocal, SortNone} {
		res, err := Order(a, WithBackend(Distributed), WithProcs(4), WithSortMode(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !IsPermutation(res.Perm) {
			t.Errorf("%v: non-permutation", m)
		}
		if res.After.Bandwidth >= res.Before.Bandwidth {
			t.Errorf("%v: bandwidth %d -> %d", m, res.Before.Bandwidth, res.After.Bandwidth)
		}
	}
}

func TestStartHeuristics(t *testing.T) {
	a := scrambled(t)
	ref, _ := Order(a)
	for _, h := range []StartHeuristic{MinDegree, FirstVertex} {
		res, err := Order(a, WithStartHeuristic(h))
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if !IsPermutation(res.Perm) {
			t.Fatalf("%v: non-permutation", h)
		}
		if res.PseudoDiameter != 0 {
			t.Errorf("%v: pseudo-diameter %d without a peripheral search", h, res.PseudoDiameter)
		}
		// The cheap heuristics still have to produce a usable ordering,
		// if not necessarily the peripheral-search one.
		if res.After.Bandwidth > 3*ref.After.Bandwidth {
			t.Errorf("%v: bandwidth %d vs peripheral %d", h, res.After.Bandwidth, ref.After.Bandwidth)
		}
	}
	// A pinned start under MinDegree/FirstVertex is the BFS root itself:
	// the root gets the last label after reversal.
	res, err := Order(a, WithStartHeuristic(FirstVertex), WithStartVertex(17))
	if err != nil {
		t.Fatal(err)
	}
	if res.Perm[a.N()-1] != 17 {
		t.Errorf("pinned root 17 not last in RCM order (got %d)", res.Perm[a.N()-1])
	}
	if _, err := Order(a, WithStartVertex(a.N())); err == nil {
		t.Error("out-of-range start vertex accepted")
	}
}

func TestWithoutReverseIsPlainCuthillMcKee(t *testing.T) {
	a := scrambled(t)
	rcmRes, err := Order(a)
	if err != nil {
		t.Fatal(err)
	}
	cmRes, err := Order(a, WithoutReverse())
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	for k := 0; k < n; k++ {
		if rcmRes.Perm[k] != cmRes.Perm[n-1-k] {
			t.Fatalf("position %d: RCM %d != reversed CM %d", k, rcmRes.Perm[k], cmRes.Perm[n-1-k])
		}
	}
}

func TestMultiComponent(t *testing.T) {
	a := Disconnected(Path(30), Grid2D(6, 5), Star(12))
	res, err := Order(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 3 {
		t.Errorf("components = %d, want 3", res.Components)
	}
	if a.Components() != 3 {
		t.Errorf("Matrix.Components() = %d, want 3", a.Components())
	}
}

// TestComponentsOfOneWayPath: the path 0-1-2 stored one way, as (1,0) and
// (2,1), is one component to every counter the facade exposes.
func TestComponentsOfOneWayPath(t *testing.T) {
	a, err := FromEdges(3, []Edge{{I: 1, J: 0, Val: 1}, {I: 2, J: 1, Val: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Order(a)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := ConnectedComponents(a)
	if err != nil {
		t.Fatal(err)
	}
	if a.Components() != 1 || res.Components != 1 || cc.Count != 1 || !strings.HasSuffix(a.String(), "comps=1") {
		t.Errorf("Matrix.Components %d, Result.Components %d, ConnectedComponents %d, String %q; want 1 each",
			a.Components(), res.Components, cc.Count, a.String())
	}
}

func TestNonSymmetricInput(t *testing.T) {
	// A lower-triangular pattern: ordering must go through A ∪ Aᵀ.
	edges := []Edge{}
	n := 16
	for v := 1; v < n; v++ {
		edges = append(edges, Edge{I: v, J: v - 1, Val: 1})
	}
	for v := 0; v < n; v++ {
		edges = append(edges, Edge{I: v, J: v, Val: 2})
	}
	a, err := FromEdges(n, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.IsSymmetricPattern() {
		t.Fatal("test matrix unexpectedly symmetric")
	}
	res, err := Order(a)
	if err != nil {
		t.Fatalf("auto-symmetrized ordering failed: %v", err)
	}
	if !IsPermutation(res.Perm) {
		t.Error("non-permutation")
	}
	if _, err := Order(a, WithoutSymmetrize()); err == nil {
		t.Error("WithoutSymmetrize accepted a non-symmetric pattern")
	}
}

func TestFromEdgesValidation(t *testing.T) {
	if _, err := FromEdges(3, []Edge{{I: 0, J: 5}}, true); err == nil {
		t.Error("out-of-range entry accepted")
	}
	if _, err := FromEdges(-1, nil, true); err == nil {
		t.Error("negative dimension accepted")
	}
}

func TestPermuteValidation(t *testing.T) {
	a := Path(5)
	if _, err := Permute(a, []int{0, 1, 2}); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := Permute(a, []int{0, 1, 2, 2, 4}); err == nil {
		t.Error("non-permutation accepted")
	}
	if _, err := Permute(nil, []int{0}); err == nil {
		t.Error("nil matrix accepted")
	}
}

func TestParseBackend(t *testing.T) {
	for s, want := range map[string]Backend{
		"seq": Sequential, "sequential": Sequential,
		"alg": Algebraic, "algebraic": Algebraic,
		"shared": Shared,
		"dist":   Distributed, "distributed": Distributed,
	} {
		got, err := ParseBackend(s)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseBackend("gpu"); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := Grid2D(7, 5)
	path := filepath.Join(dir, "grid.mtx")
	if err := SaveMatrixMarket(path, a, true, "facade round trip"); err != nil {
		t.Fatal(err)
	}
	back, hdr, err := LoadMatrixMarket(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Symmetry != "symmetric" {
		t.Errorf("header symmetry %q", hdr.Symmetry)
	}
	if !a.Equal(back) {
		t.Error("matrix changed across the round trip")
	}

	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a, false); err != nil {
		t.Fatal(err)
	}
	back2, hdr2, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr2.Symmetry != "general" || !a.Equal(back2) {
		t.Error("general-form stream round trip failed")
	}
}

func TestPermutationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := scrambled(t)
	res, err := Order(a)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "a.perm")
	if err := SavePermutation(path, res.Perm); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPermutation(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res.Perm) {
		t.Error("permutation changed across the round trip")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Split(string(raw), "\n")[0], "0") && res.Perm[0] != -1 {
		// First line is 1-based: "0" can only appear for old index -1,
		// which does not exist.
		t.Error("permutation file does not look 1-based")
	}
}

func TestSuiteAccess(t *testing.T) {
	suite := Suite()
	if len(suite) != 9 {
		t.Fatalf("suite has %d entries, want 9", len(suite))
	}
	e, err := SuiteByName("ldoor")
	if err != nil {
		t.Fatal(err)
	}
	a := e.Build(6)
	if a.N() == 0 || a.NNZ() == 0 {
		t.Error("empty analog")
	}
	if _, err := SuiteByName("no-such-matrix"); err == nil {
		t.Error("unknown suite name accepted")
	}
}

func TestSolvers(t *testing.T) {
	a := Thermal2(8)
	if !a.HasValues() {
		t.Fatal("thermal2 analog lost its values")
	}
	b := make([]float64, a.N())
	for i := range b {
		b[i] = float64(i%7) - 3
	}

	p, res, err := OrderMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	_ = res

	bj, err := NewBlockJacobi(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bj.Blocks() != 4 {
		t.Errorf("blocks = %d", bj.Blocks())
	}
	_, sres, err := SolvePCG(p, b, bj, 1e-8, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !sres.Converged {
		t.Errorf("preconditioned solve did not converge: %+v", sres)
	}
	if _, _, err := SolvePCG(p, b[:3], bj, 1e-8, 10); err == nil {
		t.Error("short rhs accepted")
	}

	ilu, err := NewILU0(p)
	if err != nil {
		t.Fatal(err)
	}
	_, ires, err := SolvePCG(p, b, ilu, 1e-8, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !ires.Converged {
		t.Error("ILU(0) solve did not converge")
	}

	// Plain CG via the nil preconditioner.
	_, plain, err := SolvePCG(p, b, nil, 1e-8, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged {
		t.Error("plain CG did not converge")
	}
	if ires.Iterations >= plain.Iterations {
		t.Errorf("ILU(0) (%d iters) not better than plain CG (%d iters)",
			ires.Iterations, plain.Iterations)
	}

	dist, err := SolveDistributedPCG(p, b, 4, 1e-6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !dist.Converged || dist.Procs != 4 {
		t.Errorf("distributed solve: converged=%v procs=%d", dist.Converged, dist.Procs)
	}
	if dist.Modeled == nil || dist.Modeled.Words <= 0 || dist.Modeled.Seconds <= 0 {
		t.Error("distributed solve missing its breakdown")
	}
	if dist.HaloWordsPerIter <= 0 || dist.HaloMsgsPerIter <= 0 {
		t.Errorf("distributed solve missing its halo: words=%d msgs=%d", dist.HaloWordsPerIter, dist.HaloMsgsPerIter)
	}
}

func TestRandomPermSeedComposesOut(t *testing.T) {
	a := scrambled(t)
	res, err := Order(a, WithBackend(Distributed), WithProcs(4), WithRandomPermSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	if !IsPermutation(res.Perm) {
		t.Fatal("non-permutation after composing out the load-balancing permutation")
	}
	if res.After.Bandwidth >= res.Before.Bandwidth {
		t.Errorf("bandwidth %d -> %d under random load balancing",
			res.Before.Bandwidth, res.After.Bandwidth)
	}
}

func TestInvertPermutation(t *testing.T) {
	p := []int{2, 0, 3, 1}
	inv := InvertPermutation(p)
	for k, v := range p {
		if inv[v] != k {
			t.Fatalf("inverse wrong at %d", k)
		}
	}
}
