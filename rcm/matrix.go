package rcm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/spmat"
)

// Matrix is a square sparse matrix (equivalently, the adjacency structure
// of an undirected graph) in the facade's currency. Values are optional:
// pattern-only matrices order and analyze fine; the numeric solvers
// (SolvePCG and friends) require values.
//
// A Matrix is immutable through this API: every transformation returns a
// new one.
type Matrix struct {
	csr *spmat.CSR

	// digestOnce/digestVal memoize Digest: the pattern is immutable, so
	// the hash is computed at most once per Matrix no matter how many
	// service requests key on it. sync.Once makes the memo safe under
	// concurrent Order calls sharing one Matrix.
	digestOnce sync.Once
	digestVal  string
}

// wrap adopts an internal CSR. Internal constructors guarantee csr != nil.
func wrap(csr *spmat.CSR) *Matrix { return &Matrix{csr: csr} }

// Edge is one directed entry (i, j) used by FromEdges; the optional Val is
// the numeric value (ignored when building a pattern).
type Edge struct {
	I, J int
	Val  float64
}

// FromEdges builds an n×n matrix from a list of entries. Duplicate entries
// are summed; entries are not mirrored, so an undirected graph must list
// both (i, j) and (j, i). When pattern is true the values are dropped and
// the matrix is pattern-only.
func FromEdges(n int, edges []Edge, pattern bool) (*Matrix, error) {
	if n < 0 {
		return nil, fmt.Errorf("rcm: negative dimension %d", n)
	}
	coords := make([]spmat.Coord, len(edges))
	for k, e := range edges {
		if e.I < 0 || e.I >= n || e.J < 0 || e.J >= n {
			return nil, fmt.Errorf("rcm: entry (%d, %d) outside %d×%d", e.I, e.J, n, n)
		}
		coords[k] = spmat.Coord{Row: e.I, Col: e.J, Val: e.Val}
	}
	return wrap(spmat.FromCoords(n, coords, pattern)), nil
}

// N returns the matrix dimension (number of vertices).
func (m *Matrix) N() int { return m.csr.N }

// NNZ returns the number of stored nonzeros (graph edges, counting both
// directions, plus diagonal entries).
func (m *Matrix) NNZ() int { return m.csr.NNZ() }

// HasValues reports whether the matrix carries numeric values (false for
// pattern-only matrices).
func (m *Matrix) HasValues() bool { return m.csr.HasValues() }

// Bandwidth returns the half bandwidth max|i-j| over nonzeros a_ij.
func (m *Matrix) Bandwidth() int { return m.csr.Bandwidth() }

// Profile returns the envelope size Σ_i (i - f_i), where f_i is the column
// of the first nonzero of row i — the storage of an envelope (skyline)
// factorization.
func (m *Matrix) Profile() int64 { return m.csr.Profile() }

// IsSymmetricPattern reports whether the nonzero pattern is structurally
// symmetric.
func (m *Matrix) IsSymmetricPattern() bool { return m.csr.IsSymmetricPattern() }

// Symmetrize returns the matrix with the pattern of A ∪ Aᵀ, which is how
// RCM is applied to matrices that are not structurally symmetric. Values,
// if present, are a_ij + a_ji off the diagonal.
func (m *Matrix) Symmetrize() *Matrix { return wrap(m.csr.Symmetrize()) }

// Components returns the number of connected components of the graph. Each
// stored entry (i, j) connects i and j whether or not its mirror is stored,
// so the count is the one ConnectedComponents and Result.Components report.
func (m *Matrix) Components() int {
	_, ncomp := m.csr.ParallelComponents(1)
	return ncomp
}

// Degrees returns the degree (off-diagonal nonzero count) of every vertex.
func (m *Matrix) Degrees() []int { return m.csr.Degrees() }

// Permute returns PAPᵀ for the permutation perm in symrcm convention:
// row/column perm[k] of the receiver becomes row/column k of the result.
// Malformed permutations — wrong length, duplicate or out-of-range
// entries — are rejected with a diagnosis naming the first offending
// position, before any kernel touches them.
func (m *Matrix) Permute(perm []int) (*Matrix, error) {
	p, err := m.csr.PermuteChecked(perm, m.csr.IsSymmetricPattern(), 1)
	if err != nil {
		return nil, fmt.Errorf("rcm: %v", err)
	}
	return wrap(p), nil
}

// Equal reports whether two matrices have the identical pattern (and, when
// both carry values, identical values, a NaN matching any NaN, so a matrix
// always equals itself).
func (m *Matrix) Equal(o *Matrix) bool {
	a, b := m.csr, o.csr
	if a.N != b.N || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i <= a.N; i++ {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.Col {
		if a.Col[k] != b.Col[k] {
			return false
		}
	}
	if a.HasValues() && b.HasValues() {
		for k, x := range a.Val {
			if y := b.Val[k]; x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
				return false
			}
		}
	}
	return true
}

// SpyString renders an ASCII spy plot of the sparsity pattern at the given
// character resolution, the quick look behind the paper's Fig. 3 plots.
func (m *Matrix) SpyString(w, h int) string { return m.csr.SpyString(w, h) }

// Stats returns the ordering-quality statistics of the matrix in its
// current row/column order. It runs the serial per-metric kernels, not the
// fused pass behind Result.Before/After, so it is their independent oracle.
func (m *Matrix) Stats() Stats {
	return newStats(spmat.OrderStats{
		Bandwidth: m.csr.Bandwidth(),
		Profile:   m.csr.Profile(),
		FillProxy: m.csr.FillProxy(),
		Wavefront: m.csr.Wavefront(),
	})
}

// newStats converts the internal statistics to the public form.
func newStats(s spmat.OrderStats) Stats {
	return Stats{
		Bandwidth:     s.Bandwidth,
		Profile:       s.Profile,
		FillProxy:     s.FillProxy,
		MaxWavefront:  s.Wavefront.Max,
		MeanWavefront: s.Wavefront.Mean,
		RMSWavefront:  s.Wavefront.RMS,
	}
}

// Summary renders a one-line structural summary under the given display
// name: dimension, nonzeros, bandwidth, profile and component count.
func (m *Matrix) Summary(name string) string {
	return spmat.Summarize(name, m.csr).String()
}

// String summarizes the matrix structure in one line.
func (m *Matrix) String() string { return m.Summary("matrix") }

// Stats bundles the ordering-sensitive quality metrics of a matrix: the
// half bandwidth, the envelope size (profile), and the wavefront statistics
// that Sloan's algorithm optimizes and frontal solvers care about. All are
// computed for a fixed row/column order, so comparing Stats before and
// after a permutation measures what the ordering achieved.
type Stats struct {
	Bandwidth int
	Profile   int64
	// FillProxy is Σ_i u_i(u_i−1)/2 over the rows' above-diagonal entry
	// counts u_i — the cheap fill-tendency proxy the fill-minimizing
	// orderings (AMD) target, reported next to the bandwidth metrics RCM
	// targets so the ablation can compare families on both axes.
	FillProxy     int64
	MaxWavefront  int
	MeanWavefront float64
	RMSWavefront  float64
}

// String formats the statistics in one line.
func (s Stats) String() string {
	return fmt.Sprintf("bandwidth=%d profile=%d maxwf=%d rmswf=%.1f",
		s.Bandwidth, s.Profile, s.MaxWavefront, s.RMSWavefront)
}

// IsPermutation reports whether p is a permutation of 0..len(p)-1.
func IsPermutation(p []int) bool { return spmat.IsPerm(p) }

// InvertPermutation returns the inverse permutation: if p maps position k
// to old index p[k] (symrcm convention), the inverse maps old index v to
// its new position.
func InvertPermutation(p []int) []int { return spmat.InvertPerm(p) }
