// Package rcm is the public front door of the repro module: a one-call
// Reverse Cuthill-McKee ordering pipeline over the four interchangeable
// implementations of the paper "The Reverse Cuthill-McKee Algorithm in
// Distributed-Memory" (Azad, Jacquelin, Buluç, Ng — IPDPS 2017,
// arXiv:1610.08128).
//
// The core entry points are
//
//	res, err := rcm.Order(a)                  // compute the ordering
//	p, res, err := rcm.OrderMatrix(a)         // compute and apply it
//	p, err := rcm.Permute(a, res.Perm)        // apply a permutation
//
// configured with functional options:
//
//	rcm.Order(a,
//	    rcm.WithBackend(rcm.Distributed),      // Sequential | Algebraic | Shared | Distributed
//	    rcm.WithProcs(16),                     // simulated MPI processes (perfect square)
//	    rcm.WithThreads(6),                    // threads per process / shared-memory threads
//	    rcm.WithSortMode(rcm.SortLocal),       // frontier labeling strategy (§VI)
//	    rcm.WithDirection(rcm.Auto),           // traversal direction: Auto | TopDown | BottomUp
//	    rcm.WithStartHeuristic(rcm.BiCriteria) // starting-vertex policy (RCM++, MinDegree, ...)
//	)
//
// All four backends obey one deterministic contract (ties by vertex id,
// minimum-label parent attachment, components by smallest vertex id), so
// they produce the identical permutation under every start heuristic; the
// Result carries the permutation in symrcm convention (Perm[k] = old index
// of the row placed at position k) together with bandwidth, envelope and
// wavefront statistics before and after, the pseudo-diameter, the component
// count, and — for the Distributed backend — the modelled BSP time
// breakdown behind the paper's Figs. 4–6.
//
// Malformed configurations and inputs (non-square process grids, zero
// worker counts, empty matrices, corrupt permutations) are rejected with
// descriptive errors by a validation layer; no entry point of this package
// panics on bad input.
//
// The package also re-exports everything an application needs so that no
// caller ever imports repro/internal/...: Matrix Market I/O (LoadMatrixMarket,
// SaveMatrixMarket, LoadPermutation, SavePermutation), the RCMB compact
// binary format for large uploads (ReadBinary, WriteBinary), the synthetic
// graph generators and the paper's nine-matrix analog suite (Grid2D, Grid3D,
// RMAT, Suite, ...), and the conjugate-gradient solvers of the paper's
// Fig. 1 motivation (SolvePCG, SolveDistributedPCG, ModelDistributedSolve).
//
// Orderings are content-addressable: Matrix.Digest hashes the canonical
// sparsity pattern and OptionsFingerprint canonicalizes a resolved option
// set, so Digest + Fingerprint identifies an Order call's behaviour
// exactly. The subpackage repro/rcm/service builds on that pair: a
// goroutine-safe ordering service (worker pool, content-hash LRU result
// cache, single-flight deduplication) served over HTTP by cmd/rcmserve —
// see OPERATIONS.md.
//
// The experiment harness that regenerates every table and figure is
// internal to the module and driven by cmd/rcmbench; see EXPERIMENTS.md.
// The design of the simulated distributed-memory substrate is documented
// in DESIGN.md.
package rcm
