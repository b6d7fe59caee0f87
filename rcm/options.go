package rcm

import (
	"fmt"

	"repro/internal/core"
)

// Backend selects which RCM engine runs the ordering: one of the three
// interchangeable engines, or Algebraic, the distributed one run on a single
// process. All backends obey the same deterministic contract and return the
// identical permutation; they differ in execution model and in what the
// Result can report.
type Backend int

const (
	// Sequential is the classic queue-based RCM of George & Liu
	// (Algorithms 1 and 2 of the paper). The default.
	Sequential Backend = iota
	// Algebraic runs the paper's matrix-algebraic formulation
	// (Algorithms 3 and 4) on one process: the Distributed engine at
	// p = 1. It ignores WithProcs, WithSortMode, WithRandomPermSeed and
	// WithHypersparse, and reports like a sequential backend (Procs and
	// Threads 1, no Modeled breakdown).
	Algebraic
	// Shared is the level-synchronous shared-memory parallel RCM in the
	// style of Karantasis et al. (SpMP), the paper's shared-memory
	// baseline; configure with WithThreads.
	Shared
	// Distributed is the paper's distributed-memory algorithm on the
	// simulated bulk-synchronous runtime; configure with WithProcs and
	// WithThreads. Results carry the modelled time Breakdown.
	Distributed
)

// String names the backend as accepted by ParseBackend.
func (b Backend) String() string {
	switch b {
	case Sequential:
		return "sequential"
	case Algebraic:
		return "algebraic"
	case Shared:
		return "shared"
	case Distributed:
		return "distributed"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend maps a command-line name to a Backend. It accepts the
// canonical names sequential|algebraic|shared|distributed and the short
// forms seq|alg|dist.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "sequential", "seq":
		return Sequential, nil
	case "algebraic", "alg":
		return Algebraic, nil
	case "shared":
		return Shared, nil
	case "distributed", "dist":
		return Distributed, nil
	}
	return 0, fmt.Errorf("rcm: unknown backend %q (want sequential|algebraic|shared|distributed)", s)
}

// Ordering selects the ordering family Order computes. The facade, the
// service layer and the cache fingerprint are ordering-generic: every
// family obeys the same deterministic contract (byte-identical output at
// any thread count, ties broken by (degree, id) or the family's analogous
// rule), returns a permutation in the symrcm convention, and reports the
// same Before/After quality statistics — callers choose by objective, not
// by API.
type Ordering int

const (
	// RCM is the Reverse Cuthill-McKee family of the source paper — the
	// bandwidth-minimizing ordering, with the four interchangeable
	// backends selected by WithBackend. The default.
	RCM Ordering = iota
	// AMD is approximate minimum degree (arXiv:2504.17097's shared-memory
	// parallelization): the fill-minimizing ordering used ahead of sparse
	// Cholesky/LU factorization. It runs the internal/amd multiple-
	// elimination engine under WithThreads; the backend, sort, direction
	// and start-vertex options are validated but do not apply (AMD has no
	// BFS structure), and the reversal flag is ignored.
	AMD
	// Sloan is Sloan's profile/wavefront-reducing ordering (the paper's
	// reference [6]) — a sequential quality baseline between the two:
	// like RCM it orders level by level, like AMD it targets a fill-
	// adjacent objective (the envelope). Backend options do not apply.
	Sloan
)

// String names the ordering family as accepted by ParseOrdering.
func (o Ordering) String() string {
	switch o {
	case RCM:
		return "rcm"
	case AMD:
		return "amd"
	case Sloan:
		return "sloan"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// ParseOrdering maps a command-line name to an Ordering. It accepts
// rcm|amd|sloan.
func ParseOrdering(s string) (Ordering, error) {
	switch s {
	case "rcm":
		return RCM, nil
	case "amd":
		return AMD, nil
	case "sloan":
		return Sloan, nil
	}
	return 0, fmt.Errorf("rcm: unknown ordering %q (want rcm|amd|sloan)", s)
}

// SortMode selects how the distributed backend labels each frontier,
// covering the paper's §VI future-work alternatives to the full
// distributed sort. It has no effect on the other backends.
type SortMode int

const (
	// SortFull is the paper's algorithm: a distributed bucket sort by
	// (parent label, degree, vertex id) spanning all processes. Only
	// SortFull preserves the cross-backend deterministic contract.
	SortFull SortMode = iota
	// SortLocal sorts only within each process, avoiding the global
	// all-to-all at some cost in ordering quality.
	SortLocal
	// SortNone labels vertices in discovery order, skipping the degree
	// sort entirely.
	SortNone
)

// String names the sort mode as accepted by ParseSortMode.
func (m SortMode) String() string {
	switch m {
	case SortFull:
		return "full"
	case SortLocal:
		return "local"
	case SortNone:
		return "none"
	}
	return fmt.Sprintf("SortMode(%d)", int(m))
}

// ParseSortMode maps a command-line name to a SortMode. It accepts
// full|local|none.
func ParseSortMode(s string) (SortMode, error) {
	switch s {
	case "full":
		return SortFull, nil
	case "local":
		return SortLocal, nil
	case "none":
		return SortNone, nil
	}
	return 0, fmt.Errorf("rcm: unknown sort mode %q (want full|local|none)", s)
}

// Direction selects the traversal direction policy of the level-synchronous
// backends (Algebraic, Shared, Distributed): whether each BFS level expands
// top-down (scan the frontier's adjacency — the paper's SpMSpV sweep) or
// bottom-up (scan the unvisited vertices' adjacency under a dense frontier
// bitmap — Beamer's direction optimization). Because the (select2nd, min)
// semiring folds the minimum over all visited neighbours in either
// direction, the computed permutation is byte-identical across modes; only
// the work and communication shape change. The Sequential backend has no
// level structure to optimize and ignores it.
type Direction int

const (
	// Auto switches per level with Beamer's α/β heuristic from exact
	// global frontier/unexplored edge counts (AllReduced in the
	// Distributed backend, so every rank flips in lockstep). The default.
	Auto Direction = iota
	// TopDown forces the classic frontier-driven sweep on every level.
	TopDown
	// BottomUp forces the bottom-up masked sweep on every level. Mostly
	// useful for tests and ablations; Auto is never worse.
	BottomUp
)

// String names the direction as accepted by ParseDirection.
func (d Direction) String() string {
	switch d {
	case Auto:
		return "auto"
	case TopDown:
		return "top-down"
	case BottomUp:
		return "bottom-up"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// ParseDirection maps a command-line name to a Direction. It accepts
// auto|top-down|bottom-up and the short forms td|bu|topdown|bottomup.
func ParseDirection(s string) (Direction, error) {
	switch s {
	case "auto":
		return Auto, nil
	case "top-down", "topdown", "td":
		return TopDown, nil
	case "bottom-up", "bottomup", "bu":
		return BottomUp, nil
	}
	return 0, fmt.Errorf("rcm: unknown direction %q (want auto|top-down|bottom-up)", s)
}

// StartHeuristic selects how the root vertex of the first component's BFS
// is chosen — the pluggable starting-node policy that RCM++
// (arXiv:2409.04171) argues materially affects ordering quality.
type StartHeuristic int

const (
	// PseudoPeripheral runs the paper's Algorithm 2/4: repeated BFS
	// sweeps that approximate a vertex of maximal eccentricity. The
	// default.
	PseudoPeripheral StartHeuristic = iota
	// BiCriteria runs the RCM++ bi-criteria node finder (Hou & Liu,
	// arXiv:2409.04171): candidates from the last BFS level are scored by
	// the trade-off WidthWeight·width − HeightWeight·height of their
	// rooted level structures, and the minimum-score root wins (ties by
	// degree, then vertex id). Narrow-and-tall beats merely tall, which
	// typically lowers the bandwidth at the cost of a few extra BFS
	// sweeps; configure the trade-off with WithBiCriteriaWeights.
	BiCriteria
	// MinDegree starts directly from the minimum-(degree, id) vertex,
	// skipping the start-vertex search — cheaper, often nearly as
	// good on mesh-like graphs (the classic Cuthill-McKee prescription).
	MinDegree
	// FirstVertex starts directly from the smallest unvisited vertex id,
	// skipping any search. Mostly useful for tests and baselines.
	FirstVertex
)

// String names the heuristic as accepted by ParseHeuristic.
func (h StartHeuristic) String() string {
	switch h {
	case PseudoPeripheral:
		return "pseudo-peripheral"
	case BiCriteria:
		return "bi-criteria"
	case MinDegree:
		return "min-degree"
	case FirstVertex:
		return "first-vertex"
	}
	return fmt.Sprintf("StartHeuristic(%d)", int(h))
}

// ParseHeuristic maps a command-line name to a StartHeuristic. It accepts
// the canonical names pseudo-peripheral|bi-criteria|min-degree|first-vertex
// and the short forms peripheral|pp|bicriteria|bc|mindeg|first.
func ParseHeuristic(s string) (StartHeuristic, error) {
	switch s {
	case "pseudo-peripheral", "peripheral", "pp":
		return PseudoPeripheral, nil
	case "bi-criteria", "bicriteria", "bc":
		return BiCriteria, nil
	case "min-degree", "mindeg":
		return MinDegree, nil
	case "first-vertex", "first":
		return FirstVertex, nil
	}
	return 0, fmt.Errorf("rcm: unknown start heuristic %q (want pseudo-peripheral|bi-criteria|min-degree|first-vertex)", s)
}

// config is the resolved option set of one Order call.
type config struct {
	ordering    Ordering
	backend     Backend
	sortMode    SortMode
	heuristic   StartHeuristic
	direction   Direction
	dirAlpha    int // 0: default
	dirBeta     int // 0: default
	bcWidthW    int // bi-criteria width weight; 0 with bcSet unset: default
	bcHeightW   int // bi-criteria height weight
	bcSet       bool
	start       int // -1: unset
	threads     int
	threadsSet  bool
	procs       int
	seed        int64
	hypersparse bool
	noReverse   bool
	symmetrize  bool
	compSched   bool
	compThresh  int // 0: DefaultComponentThreshold
}

func defaultConfig() config {
	return config{
		start:      -1,
		threads:    1,
		procs:      1,
		symmetrize: true,
	}
}

// Option configures Order and OrderMatrix.
type Option func(*config)

// WithOrdering selects the ordering family (RCM, AMD or Sloan). The other
// options keep their meaning under RCM; under AMD only WithThreads (the
// multiple-elimination workers) and WithoutSymmetrize apply, and under
// Sloan the engine is sequential. Backend-specific options are still
// validated — a malformed request fails identically for every family — but
// do not change the non-RCM permutations; they do stay part of the cache
// fingerprint (see OptionsFingerprint), which is deliberately conservative.
func WithOrdering(o Ordering) Option { return func(c *config) { c.ordering = o } }

// WithBackend selects the implementation that runs the ordering.
func WithBackend(b Backend) Option { return func(c *config) { c.backend = b } }

// WithSortMode selects the distributed frontier labeling strategy.
func WithSortMode(m SortMode) Option { return func(c *config) { c.sortMode = m } }

// WithStartHeuristic selects the starting-vertex policy for the first
// component (later components always start from their smallest unvisited
// vertex id, per the deterministic contract; PseudoPeripheral and
// BiCriteria then refine every component's seed).
func WithStartHeuristic(h StartHeuristic) Option { return func(c *config) { c.heuristic = h } }

// WithBiCriteriaWeights sets the width and height coefficients of the
// BiCriteria score WidthWeight·width − HeightWeight·height (lower is
// better). Both must be non-negative and at least one positive; the
// defaults are 1 and 1. Order rejects the option when the selected
// heuristic is not BiCriteria — silently ignoring the weights would hide a
// misconfiguration.
func WithBiCriteriaWeights(widthWeight, heightWeight int) Option {
	return func(c *config) { c.bcWidthW, c.bcHeightW, c.bcSet = widthWeight, heightWeight, true }
}

// WithDirection selects the traversal direction policy of the
// level-synchronous backends (Auto, TopDown or BottomUp). The permutation
// is identical in every mode; see Direction.
func WithDirection(d Direction) Option { return func(c *config) { c.direction = d } }

// WithDirectionThresholds overrides the α and β switching thresholds of the
// Auto direction policy: the traversal goes bottom-up while the frontier is
// growing and touches more than 1/alpha of the edges still incident to
// unexplored vertices, and returns top-down once it shrinks below 1/beta of
// the vertices. Zero keeps a threshold at its Beamer default (α=14, β=24);
// negative values are rejected by Order.
func WithDirectionThresholds(alpha, beta int) Option {
	return func(c *config) { c.dirAlpha, c.dirBeta = alpha, beta }
}

// WithStartVertex pins the vertex the first component's search starts from.
// Under PseudoPeripheral it seeds the peripheral sweeps; under the other
// heuristics it is used directly as the BFS root.
func WithStartVertex(v int) Option { return func(c *config) { c.start = v } }

// WithThreads sets the thread count: the worker goroutines of the Shared
// backend, the per-process OpenMP-style threads of the Distributed machine
// model (cores = procs × threads), and the worker pool of the component
// scheduler and ConnectedComponents (which otherwise default to GOMAXPROCS).
// It is also the budget of the host passes Order makes over the input —
// the symmetry check and the Before/After statistics — except under the
// Distributed backend, where those use procs × threads, capped at
// GOMAXPROCS. No output depends on it.
func WithThreads(t int) Option { return func(c *config) { c.threads, c.threadsSet = t, true } }

// WithProcs sets the number of simulated MPI processes for the Distributed
// backend. Like the paper's implementation, it must be a perfect square.
// A distributed RCM run's symmetry check and Before/After statistics run
// on procs × threads host threads, capped at GOMAXPROCS.
func WithProcs(p int) Option { return func(c *config) { c.procs = p } }

// WithRandomPermSeed enables the random symmetric load-balancing
// permutation of §IV-A before a distributed ordering (seed != 0). The
// permutation is composed back out, so Result.Perm still refers to the
// caller's matrix — but note the ordering itself may legitimately differ
// from the unpermuted run, since RCM tie-breaking is id-dependent.
func WithRandomPermSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithHypersparse stores the distributed backend's local blocks in DCSC
// (doubly compressed) form, the CombBLAS storage for large process grids.
func WithHypersparse(on bool) Option { return func(c *config) { c.hypersparse = on } }

// WithoutReverse skips the final reversal, producing the plain
// Cuthill-McKee order instead of RCM.
func WithoutReverse() Option { return func(c *config) { c.noReverse = true } }

// WithoutSymmetrize disables the automatic symmetrization of structurally
// non-symmetric inputs. Order then returns an error for such matrices
// instead of ordering the pattern of A ∪ Aᵀ.
func WithoutSymmetrize() Option { return func(c *config) { c.symmetrize = false } }

// WithComponentScheduling enables the component-aware scheduler: connected
// components are detected up front with a parallel union-find pass, those
// smaller than threshold are extracted and ordered concurrently as
// independent sequential jobs across the worker pool, the rest go through
// the selected backend, and the per-component orderings are stitched back
// in the deterministic processing order — byte-identical output to the
// unscheduled run, but component-heavy inputs (multi-body meshes,
// block-diagonal systems) no longer serialize behind the per-component
// cursor. threshold == 0 selects DefaultComponentThreshold; negative
// thresholds are rejected by Order.
//
// The scheduler steps aside — plain unscheduled ordering runs — for the
// distributed configurations whose output is not relabeling-equivariant:
// WithSortMode(SortLocal|SortNone) and WithRandomPermSeed, where labels
// legitimately depend on global vertex numbering. Result.ComponentStats
// reports what the scheduler did.
func WithComponentScheduling(threshold int) Option {
	return func(c *config) { c.compSched, c.compThresh = true, threshold }
}

// DefaultComponentThreshold is the component size at and above which the
// scheduler routes a component through the full selected backend; smaller
// components are batched across the worker pool.
const DefaultComponentThreshold = core.DefaultComponentThreshold
