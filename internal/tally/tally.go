// Package tally provides the performance-accounting substrate for the
// simulated distributed-memory runtime: a machine cost model (latency α,
// inverse bandwidth β, per-operation compute cost), per-rank counters for
// messages, words and work, and a BSP virtual clock.
//
// The paper (§IV-B) analyses its algorithm with the classic model
// T = F + αS + βW, where F is the number of arithmetic operations, S the
// number of messages and W the number of words moved. This package realises
// exactly that accounting: local kernels report work units which advance the
// rank's virtual clock, and every collective synchronizes the clocks of the
// participants to their maximum (the bulk-synchronous barrier) before adding
// the modelled communication cost. The result is a deterministic, host-load
// independent "execution time" that reproduces the strong-scaling shape of
// the paper's figures.
package tally

import "fmt"

// Phase identifies one of the runtime-breakdown buckets reported in Fig. 4 of
// the paper: the two stages of the algorithm (pseudo-peripheral search and
// RCM ordering) crossed with the dominant primitives.
type Phase uint8

// Breakdown buckets, matching the legend of Fig. 4 in the paper.
const (
	// PeripheralSpMSpV is time spent in SPMSPV calls during the
	// pseudo-peripheral vertex search (Algorithm 4).
	PeripheralSpMSpV Phase = iota
	// PeripheralOther is all remaining time of the pseudo-peripheral search.
	PeripheralOther
	// OrderingSpMSpV is time spent in SPMSPV calls during the RCM ordering
	// traversal (Algorithm 3).
	OrderingSpMSpV
	// OrderingSort is time spent in the distributed SORTPERM primitive.
	OrderingSort
	// OrderingOther is all remaining time of the ordering traversal.
	OrderingOther
	// Setup is time outside both stages (matrix distribution, degree
	// computation). The paper folds this into "Other"; we keep it separate
	// so Figs. 4-6 can be reproduced with or without it.
	Setup

	// NumPhases is the number of phase buckets.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"peripheral-spmspv",
	"peripheral-other",
	"ordering-spmspv",
	"ordering-sort",
	"ordering-other",
	"setup",
}

// String returns the canonical name of the phase bucket.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Model is the α-β-γ machine model used to convert counted events into
// modelled nanoseconds. The defaults (see Edison) are loosely calibrated to
// the Cray XC30 used in the paper; only the *shape* of the resulting curves
// is meaningful, and the constants are deliberately exposed so experiments
// can vary them.
type Model struct {
	// AlphaNs is the latency per message, in nanoseconds. This includes
	// the per-collective software overhead, which dominates small
	// transfers on real interconnects.
	AlphaNs float64
	// BetaNsPerWord is the inverse bandwidth per 8-byte word.
	BetaNsPerWord float64
	// CompNsPerUnit is the cost of one unit of local work. A unit is one
	// irregular memory operation: an edge traversal, a sparse-accumulator
	// update, or one comparison-move of a sort.
	CompNsPerUnit float64
	// Threads is the number of OpenMP-style threads per process in the
	// hybrid model. Local computation is divided by Threads (the paper's
	// fully multithreaded local kernels); communication is not.
	Threads int
}

// Edison returns the default machine model: constants chosen so that the
// modelled strong-scaling curves of the ~10-30× downscaled analog matrices
// reproduce the qualitative behaviour reported on NERSC Edison (Cray XC30,
// Aries dragonfly, 2.4 GHz Ivy Bridge): computation-bound at low
// concurrency, SpMSpV communication crossover at mid concurrency, SORTPERM
// (α·p all-to-all latency) dominant at the highest process counts, and
// flat-MPI paying ~6× the collective latencies of the hybrid runs. Because
// the analogs are smaller than the paper's matrices, α is scaled down with
// them; see DESIGN.md for the calibration rationale and EXPERIMENTS.md for
// the size-sensitivity experiment that varies the matrix size at fixed
// model constants.
func Edison() *Model {
	return &Model{
		AlphaNs:       500, // effective per-message latency at analog scale
		BetaNsPerWord: 0.5, // ~16 GB/s per link
		CompNsPerUnit: 25,  // irregular, memory-bound edge operations
		Threads:       1,
	}
}

// WithThreads returns a copy of m with the given number of threads per
// process.
func (m *Model) WithThreads(t int) *Model {
	c := *m
	if t < 1 {
		t = 1
	}
	c.Threads = t
	return &c
}

func log2Ceil(q int) float64 {
	if q <= 1 {
		return 0
	}
	l := 0
	for v := q - 1; v > 0; v >>= 1 {
		l++
	}
	return float64(l)
}

// AllGatherCost models an all-gather among q ranks moving words total words:
// a recursive-doubling tree costs α·⌈log₂ q⌉ plus the bandwidth term.
func (m *Model) AllGatherCost(q int, words int64) float64 {
	if q <= 1 {
		return 0
	}
	return m.AlphaNs*log2Ceil(q) + m.BetaNsPerWord*float64(words)
}

// AllToAllCost models a personalized all-to-all among q ranks where this rank
// injects/extracts words words: α·(q-1) plus the bandwidth term (the linear
// latency regime of Bruck et al., which the paper cites for SORTPERM).
func (m *Model) AllToAllCost(q int, words int64) float64 {
	if q <= 1 {
		return 0
	}
	return m.AlphaNs*float64(q-1) + m.BetaNsPerWord*float64(words)
}

// NeighborCost models a neighbourhood exchange (MPI_Neighbor_alltoallv,
// PETSc's VecScatter) in which this rank sends msgs non-empty messages and
// injects/extracts words words: α per message plus the bandwidth term, so a
// rank pays no latency for partners it has nothing to send.
func (m *Model) NeighborCost(msgs, words int64) float64 {
	return m.AlphaNs*float64(msgs) + m.BetaNsPerWord*float64(words)
}

// AllReduceCost models an all-reduce of words words among q ranks
// (reduce-scatter + all-gather).
func (m *Model) AllReduceCost(q int, words int64) float64 {
	if q <= 1 {
		return 0
	}
	return 2*m.AlphaNs*log2Ceil(q) + 2*m.BetaNsPerWord*float64(words)
}

// AllReduceSliceCost models an element-wise all-reduce of a dense words-long
// vector among q ranks in the long-vector regime (Rabenseifner:
// reduce-scatter followed by all-gather, each moving words·(q-1)/q). This is
// the cost shape of the dense bitmap collectives of the direction-optimized
// BFS: unlike the short-vector AllReduceCost, the bandwidth term does not
// double as q grows.
func (m *Model) AllReduceSliceCost(q int, words int64) float64 {
	if q <= 1 {
		return 0
	}
	frac := float64(q-1) / float64(q)
	return 2*m.AlphaNs*log2Ceil(q) + 2*m.BetaNsPerWord*float64(words)*frac
}

// P2PCost models a single point-to-point message of words words.
func (m *Model) P2PCost(words int64) float64 {
	return m.AlphaNs + m.BetaNsPerWord*float64(words)
}

// BarrierCost models a barrier among q ranks.
func (m *Model) BarrierCost(q int) float64 {
	if q <= 1 {
		return 0
	}
	return m.AlphaNs * log2Ceil(q)
}

// Stats accumulates the counters and the virtual clock of one rank. It is
// owned by exactly one rank and must not be shared.
type Stats struct {
	model *Model
	phase Phase

	clockNs float64

	// CompNs and CommNs are per-phase modelled times.
	CompNs [NumPhases]float64
	CommNs [NumPhases]float64

	// Msgs is the total number of messages this rank sent.
	Msgs int64
	// Words is the total number of 8-byte words this rank sent.
	Words int64
	// Work is the total number of local work units this rank performed.
	Work int64

	// TopDownLevels and BottomUpLevels count the BFS levels this rank ran
	// in each traversal direction (peripheral search and ordering combined);
	// the direction switch is computed from AllReduced exact counts, so the
	// counts are identical on every rank of a run.
	TopDownLevels, BottomUpLevels int64

	// PeripheralSweeps counts the rooted BFS sweeps the start-vertex
	// search ran (over all components); CandidateSweeps counts how many of
	// those were evaluated under a multi-candidate shortlist — the
	// bi-criteria evaluations, zero under the classic pseudo-peripheral
	// search. Identical on every rank of a run.
	PeripheralSweeps, CandidateSweeps int64
}

// NewStats returns a Stats bound to the given model, starting in the Setup
// phase with a zero clock.
func NewStats(m *Model) *Stats {
	return &Stats{model: m, phase: Setup}
}

// SetPhase switches the active breakdown bucket.
func (s *Stats) SetPhase(p Phase) { s.phase = p }

// ClockNs returns the rank's current virtual time.
func (s *Stats) ClockNs() float64 { return s.clockNs }

// AddWork reports units of local work: the clock advances by
// units·CompNsPerUnit/Threads, attributed to the active phase.
func (s *Stats) AddWork(units int64) {
	if units <= 0 {
		return
	}
	s.Work += units
	dt := float64(units) * s.model.CompNsPerUnit / float64(s.model.Threads)
	s.clockNs += dt
	s.CompNs[s.phase] += dt
}

// AddLevel records one BFS level run in the given traversal direction.
func (s *Stats) AddLevel(bottomUp bool) {
	if bottomUp {
		s.BottomUpLevels++
	} else {
		s.TopDownLevels++
	}
}

// AddSweep records one rooted BFS sweep of the start-vertex search;
// candidates reports whether the sweep was evaluated under a
// multi-candidate shortlist (the bi-criteria finder).
func (s *Stats) AddSweep(candidates bool) {
	s.PeripheralSweeps++
	if candidates {
		s.CandidateSweeps++
	}
}

// CommSync implements the BSP step of a collective: the clock jumps to
// syncNs (the maximum clock over all participants, i.e. the implicit wait at
// the bulk-synchronous barrier) and then advances by costNs, the modelled
// cost of the data movement. Both the wait and the movement are attributed
// to the active phase's communication bucket. msgs and words update the raw
// traffic counters.
func (s *Stats) CommSync(syncNs, costNs float64, msgs, words int64) {
	if syncNs < s.clockNs {
		syncNs = s.clockNs
	}
	wait := syncNs - s.clockNs
	s.clockNs = syncNs + costNs
	s.CommNs[s.phase] += wait + costNs
	s.Msgs += msgs
	s.Words += words
}

// Breakdown aggregates the per-rank stats of one run into the quantities the
// paper plots: per-phase times (averaged over ranks, which after the final
// barrier are near-identical) and total traffic.
type Breakdown struct {
	// Ranks is the number of ranks aggregated.
	Ranks int
	// ClockNs is the maximum virtual completion time over ranks: the
	// modelled makespan of the run.
	ClockNs float64
	// CompNs and CommNs hold mean per-phase modelled times.
	CompNs [NumPhases]float64
	CommNs [NumPhases]float64
	// Msgs and Words are summed over ranks.
	Msgs  int64
	Words int64
	// Work is summed over ranks.
	Work int64
	// TopDownLevels and BottomUpLevels are the per-direction BFS level
	// counts of the run. Every rank runs the same levels in the same
	// direction (the switch is decided from AllReduced counts), so the
	// aggregate is the maximum over ranks, not a sum.
	TopDownLevels, BottomUpLevels int64
	// PeripheralSweeps and CandidateSweeps are the start-vertex search's
	// sweep counts (see Stats); like the level counts they are identical
	// per rank, so the aggregate is the maximum, not a sum.
	PeripheralSweeps, CandidateSweeps int64
}

// Collect aggregates per-rank stats.
func Collect(stats []*Stats) Breakdown {
	var b Breakdown
	b.Ranks = len(stats)
	if b.Ranks == 0 {
		return b
	}
	for _, s := range stats {
		if s.clockNs > b.ClockNs {
			b.ClockNs = s.clockNs
		}
		for p := Phase(0); p < NumPhases; p++ {
			b.CompNs[p] += s.CompNs[p]
			b.CommNs[p] += s.CommNs[p]
		}
		b.Msgs += s.Msgs
		b.Words += s.Words
		b.Work += s.Work
		if s.TopDownLevels > b.TopDownLevels {
			b.TopDownLevels = s.TopDownLevels
		}
		if s.BottomUpLevels > b.BottomUpLevels {
			b.BottomUpLevels = s.BottomUpLevels
		}
		if s.PeripheralSweeps > b.PeripheralSweeps {
			b.PeripheralSweeps = s.PeripheralSweeps
		}
		if s.CandidateSweeps > b.CandidateSweeps {
			b.CandidateSweeps = s.CandidateSweeps
		}
	}
	inv := 1 / float64(b.Ranks)
	for p := Phase(0); p < NumPhases; p++ {
		b.CompNs[p] *= inv
		b.CommNs[p] *= inv
	}
	return b
}

// Merge combines the breakdowns of runs executed one after another on the
// same machine (the component scheduler's per-component distributed runs):
// clocks and per-phase times add, traffic and work add, level and sweep
// counts add (each run expands its own levels), and Ranks is the maximum —
// the runs share one process grid, they do not widen it.
func Merge(parts []Breakdown) Breakdown {
	var b Breakdown
	for _, p := range parts {
		if p.Ranks > b.Ranks {
			b.Ranks = p.Ranks
		}
		b.ClockNs += p.ClockNs
		for ph := Phase(0); ph < NumPhases; ph++ {
			b.CompNs[ph] += p.CompNs[ph]
			b.CommNs[ph] += p.CommNs[ph]
		}
		b.Msgs += p.Msgs
		b.Words += p.Words
		b.Work += p.Work
		b.TopDownLevels += p.TopDownLevels
		b.BottomUpLevels += p.BottomUpLevels
		b.PeripheralSweeps += p.PeripheralSweeps
		b.CandidateSweeps += p.CandidateSweeps
	}
	return b
}

// PhaseNs returns the mean total (comp+comm) time of one phase bucket.
func (b *Breakdown) PhaseNs(p Phase) float64 { return b.CompNs[p] + b.CommNs[p] }

// TotalNs returns the sum of all phase buckets (mean over ranks). This is
// the "height of the bar" in Fig. 4.
func (b *Breakdown) TotalNs() float64 {
	var t float64
	for p := Phase(0); p < NumPhases; p++ {
		t += b.PhaseNs(p)
	}
	return t
}

// TotalCommNs returns the mean communication time summed over phases.
func (b *Breakdown) TotalCommNs() float64 {
	var t float64
	for _, v := range b.CommNs {
		t += v
	}
	return t
}

// SpMSpVCompNs returns the mean computation time inside SPMSPV calls across
// both stages (the "Computation" series of Fig. 5).
func (b *Breakdown) SpMSpVCompNs() float64 {
	return b.CompNs[PeripheralSpMSpV] + b.CompNs[OrderingSpMSpV]
}

// SpMSpVCommNs returns the mean communication time inside SPMSPV calls
// across both stages (the "Communication" series of Fig. 5).
func (b *Breakdown) SpMSpVCommNs() float64 {
	return b.CommNs[PeripheralSpMSpV] + b.CommNs[OrderingSpMSpV]
}

// Seconds converts modelled nanoseconds to seconds.
func Seconds(ns float64) float64 { return ns / 1e9 }
