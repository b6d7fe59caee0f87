// Package rcmtest holds the property checks shared by the rcm test suites:
// golden tests, fuzz targets, and concurrency tests all validate orderings
// through CheckResult instead of re-implementing the invariants.
package rcmtest

import (
	"testing"

	"repro/rcm"
)

// CheckResult asserts the structural invariants every ordering Result must
// satisfy for the matrix it was computed from:
//
//   - Perm is a valid permutation of 0..N-1.
//   - Result.Components matches an independent ConnectedComponents run.
//   - PseudoDiameter is non-negative and zero for an empty permutation.
//   - The Before/After statistics are well-formed: fill proxies are
//     non-negative, Before matches the matrix's own Stats, and After
//     matches the Stats of the materialized PAPᵀ — the serial kernels, an
//     oracle that shares no code with the fused pass Order runs.
//
// The checks hold for every ordering family (RCM, AMD, Sloan) — the
// quality properties are advisory: no family guarantees an improvement on
// every input (a matrix that is already optimally banded, or pathological
// tie patterns, can come out wider), so an increase in the family's target
// metric is logged rather than failed — fuzzing must not flag legitimate
// behaviour.
func CheckResult(t testing.TB, m *rcm.Matrix, res *rcm.Result) {
	t.Helper()
	if m == nil || res == nil {
		t.Fatalf("rcmtest: nil matrix or result (matrix=%v result=%v)", m != nil, res != nil)
	}
	if len(res.Perm) != m.N() {
		t.Fatalf("rcmtest: permutation length %d, matrix has %d rows", len(res.Perm), m.N())
	}
	if !rcm.IsPermutation(res.Perm) {
		t.Fatalf("rcmtest: Perm is not a permutation of 0..%d: %v", m.N()-1, bounded(res.Perm))
	}
	cc, err := rcm.ConnectedComponents(m)
	if err != nil {
		t.Fatalf("rcmtest: ConnectedComponents failed: %v", err)
	}
	if res.Components != cc.Count {
		t.Errorf("rcmtest: result reports %d components, ConnectedComponents finds %d", res.Components, cc.Count)
	}
	if res.ComponentStats != nil {
		st := res.ComponentStats
		if st.Count != cc.Count {
			t.Errorf("rcmtest: ComponentStats.Count = %d, ConnectedComponents finds %d", st.Count, cc.Count)
		}
		if st.Batched+st.Direct != st.Count && st.Count > 0 {
			t.Errorf("rcmtest: ComponentStats batched %d + direct %d != count %d", st.Batched, st.Direct, st.Count)
		}
	}
	if res.PseudoDiameter < 0 {
		t.Errorf("rcmtest: negative pseudo-diameter %d", res.PseudoDiameter)
	}
	if res.Before.FillProxy < 0 || res.After.FillProxy < 0 {
		t.Errorf("rcmtest: negative fill proxy (before %d, after %d)",
			res.Before.FillProxy, res.After.FillProxy)
	}
	if got := m.Stats(); got != res.Before {
		t.Errorf("rcmtest: Result.Before %+v != matrix Stats %+v", res.Before, got)
	}
	p, err := rcm.Permute(m, res.Perm)
	if err != nil {
		t.Fatalf("rcmtest: Permute(m, Perm) failed: %v", err)
	}
	if got := p.Stats(); got != res.After {
		t.Errorf("rcmtest: Result.After %+v != Stats of PAPᵀ %+v", res.After, got)
	}
	switch res.Ordering {
	case rcm.AMD:
		if res.After.FillProxy > res.Before.FillProxy {
			t.Logf("rcmtest: AMD fill proxy increased %d -> %d (legal but notable)",
				res.Before.FillProxy, res.After.FillProxy)
		}
	default:
		if res.After.Bandwidth > res.Before.Bandwidth {
			t.Logf("rcmtest: bandwidth increased %d -> %d (legal but notable)",
				res.Before.Bandwidth, res.After.Bandwidth)
		}
	}
}

// bounded truncates long permutations in failure messages.
func bounded(p []int) []int {
	if len(p) > 32 {
		return p[:32]
	}
	return p
}
