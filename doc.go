// Package repro is a from-scratch Go reproduction of "The Reverse
// Cuthill-McKee Algorithm in Distributed-Memory" (Azad, Jacquelin, Buluç,
// Ng — IPDPS 2017, arXiv:1610.08128).
//
// The public API is the facade package repro/rcm: a one-call ordering
// pipeline (Order, OrderMatrix, Permute) with functional options selecting
// the backend (Sequential, Algebraic, Shared, Distributed), the sort mode,
// the traversal direction, the starting-vertex heuristic and the
// worker/process counts — plus the Matrix Market and binary I/O, the
// synthetic graph generators and the CG solvers an application needs, so no
// caller ever imports repro/internal/... The ordering service repro/rcm/service
// (HTTP front end cmd/rcmserve) serves Order behind a content-hash result
// cache with single-flight deduplication; cmd/rcmbench regenerates every
// table and figure.
//
// The engine lives under internal/: package core holds the four RCM
// implementations (sequential, matrix-algebraic, shared-memory parallel,
// and the paper's distributed algorithm); packages comm, grid, distmat,
// spvec, semiring and tally form the simulated distributed-memory substrate
// that replaces MPI+CombBLAS; graphgen generates the synthetic analogs of
// the paper's matrix suite; cg provides the CG + block-Jacobi solver of
// Fig. 1; bench implements the experiments, one table of them that
// cmd/rcmbench runs at any scale and go test runs at a tiny one. See
// README.md, DESIGN.md and EXPERIMENTS.md.
package repro
