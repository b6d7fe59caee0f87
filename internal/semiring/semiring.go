// Package semiring defines the overloaded (multiply, add) operator pairs the
// paper's SPMSPV primitive is parameterised by (§III-A). The matrix elements
// are structural (binary); the vector elements are int64 labels or levels.
//
// The RCM traversal uses (select2nd, min): multiplication passes the
// parent's label to the child, and addition keeps the minimum label, so each
// newly discovered vertex deterministically attaches to its minimum-label
// visited neighbour (Fig. 2 of the paper). This determinism is what makes
// the distributed ordering identical to the sequential one — and it is what
// the reproduction's equivalence tests rely on.
//
// Semiring is a closed value type over the four built-in pairs, not an
// interface: Multiply, Add and Identity are a switch small enough to inline
// into the kernels' per-edge loops (distmat.SpMSpV, the bottom-up kernels,
// the sparse accumulator), so a fold costs a compare, not a call.
package semiring

import "math"

// Semiring is an overloaded (multiply, add) pair over int64 vector values
// and binary matrix values. The four constants below are its only values.
type Semiring uint8

const (
	// Select2ndMin is the deterministic BFS/RCM semiring (select2nd, min).
	Select2ndMin Semiring = iota
	// Select2ndMax is (select2nd, max); used by tests to show the ordering
	// is sensitive to the additive operation.
	Select2ndMax
	// Select2ndAny is the nondeterministic variant: any visited neighbour
	// may become the parent (first writer wins). The paper notes the min
	// overload in Algorithm 4 "can be replaced by any equivalent
	// operation"; this is that replacement. Because it keeps the first
	// value, it is also the order-sensitive fold the tests use to show
	// duplicates fold in source order.
	Select2ndAny
	// PlusTimes is the arithmetic semiring over int64, used by SpMSpV
	// correctness tests against a dense reference multiply.
	PlusTimes
)

// Multiply combines a (structural) matrix entry with the vector value x of
// its column: every built-in semiring selects x (select2nd, or × by the
// structural 1).
func (Semiring) Multiply(x int64) int64 { return x }

// Add combines two products accumulated on the same output index.
func (s Semiring) Add(a, b int64) int64 {
	switch s {
	case Select2ndMin:
		return min(a, b)
	case Select2ndMax:
		return max(a, b)
	case Select2ndAny:
		if a == math.MaxInt64 {
			return b
		}
		return a
	}
	return a + b
}

// Identity is the additive identity (the "empty accumulator" value).
func (s Semiring) Identity() int64 {
	switch s {
	case Select2ndMax:
		return math.MinInt64
	case PlusTimes:
		return 0
	}
	return math.MaxInt64
}

// Name identifies the semiring in reports.
func (s Semiring) Name() string {
	switch s {
	case Select2ndMin:
		return "(select2nd,min)"
	case Select2ndMax:
		return "(select2nd,max)"
	case Select2ndAny:
		return "(select2nd,any)"
	}
	return "(+,×)"
}
