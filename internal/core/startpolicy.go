package core

import (
	"fmt"

	"repro/internal/psort"
)

// This file is the pluggable start-vertex subsystem: the policy that picks
// the BFS root of each component, factored out of the three engines. Every
// engine exposes its pseudo-peripheral BFS machinery through the Sweeper
// interface — one rooted breadth-first sweep summarized as a LevelStructure —
// and the policies (the paper's Algorithm 2/4 search and the RCM++
// bi-criteria finder of Hou & Liu, arXiv:2409.04171) are pure functions of
// those summaries. Because a LevelStructure contains only global quantities
// (heights, level widths, (degree, id)-minimal candidates), a policy decides
// identically in all three engines — and, inside the distributed engine,
// identically on every rank — which is what keeps the deterministic contract
// intact under any heuristic.

// Candidate is a (vertex, degree) pair drawn from the last level of a sweep.
type Candidate struct {
	ID  int
	Deg int64
}

// LevelStructure summarizes one rooted BFS: the rooted level structure
// L(root) of the pseudo-peripheral literature.
type LevelStructure struct {
	// Root is the vertex the sweep started from.
	Root int
	// RootDeg is Root's degree. Engines populate it only when maxCand > 1
	// is requested (the bi-criteria policy needs it for tie-breaking; the
	// classic search does not, and the distributed engine would pay an
	// extra collective for it).
	RootDeg int64
	// Height is the eccentricity estimate: the index of the last level.
	Height int
	// Width is the maximum level size, the quantity the bi-criteria score
	// trades against Height (level 0 counts, so Width >= 1).
	Width int64
	// Candidates holds up to the requested number of minimum-(degree, id)
	// vertices of the last level, in ascending (degree, id) order.
	Candidates []Candidate
}

// Sweeper is one engine's rooted-BFS oracle for the start-vertex search.
// Implementations are free to traverse in any direction (the level sets, and
// therefore every LevelStructure field, are direction-independent); the
// distributed implementation is collective and returns the identical
// structure on every rank.
type Sweeper interface {
	// Sweep runs a BFS from root within root's component and summarizes its
	// level structure with up to maxCand candidates (maxCand >= 1).
	Sweep(root, maxCand int) LevelStructure
}

// StartPolicy picks the BFS root of one component from repeated sweeps. A
// policy must be a pure function of the LevelStructures it observes (plus
// its own configuration), so that every engine — and every rank of the
// distributed engine — reaches the same decision.
type StartPolicy interface {
	// PickRoot returns the ordering root for the component containing
	// start, together with the best eccentricity estimate observed (the
	// pseudo-diameter contribution of this component).
	PickRoot(start int, sw Sweeper) (root, ecc int)
	// String names the policy in reports.
	String() string
}

// policy resolves the configured start policy, defaulting to the classic
// pseudo-peripheral search.
func (o Options) policy() StartPolicy {
	if o.Policy != nil {
		return o.Policy
	}
	return PeripheralPolicy{}
}

// PeripheralPolicy is the paper's Algorithm 2/4: repeat the sweep from the
// minimum-(degree, id) vertex of the last level while the eccentricity
// improves, and return that final candidate. The default policy.
type PeripheralPolicy struct{}

// String names the policy.
func (PeripheralPolicy) String() string { return "pseudo-peripheral" }

// PickRoot implements the George-Liu iteration.
func (PeripheralPolicy) PickRoot(start int, sw Sweeper) (int, int) {
	root := start
	prevEcc := 0
	for {
		ls := sw.Sweep(root, 1)
		cand := ls.Candidates[0].ID
		if ls.Height <= prevEcc {
			return cand, prevEcc
		}
		prevEcc = ls.Height
		root = cand
	}
}

// Defaults of the bi-criteria finder: equal weights on width and height, and
// a candidate shortlist of eight per round (RCM++ prunes the last level the
// same way — evaluating every last-level vertex would square the BFS cost on
// mesh-like graphs; eight won the generator-suite sweep recorded in
// EXPERIMENTS.md, beating four on a third of the suite at the cost of a few
// extra sweeps).
const (
	DefaultBiCriteriaWidthWeight  = 1
	DefaultBiCriteriaHeightWeight = 1
	DefaultBiCriteriaCandidates   = 8
)

// BiCriteriaPolicy is the RCM++ bi-criteria node finder: instead of
// maximizing eccentricity alone, each evaluated root r is scored by the
// trade-off
//
//	score(r) = WidthWeight·width(L(r)) − HeightWeight·height(L(r))
//
// over its rooted level structure L(r), and the minimum-score root wins —
// narrow and tall beats merely tall, which is the property that actually
// bounds the Cuthill-McKee bandwidth. Each round sweeps from the current
// root, shortlists up to MaxCandidates minimum-(degree, id) vertices of the
// last level, evaluates each one's level structure, and moves to the best
// strict improvement; ties are broken by (score, degree, id), so the result
// is deterministic and engine-independent.
type BiCriteriaPolicy struct {
	// WidthWeight and HeightWeight are the score coefficients; both must be
	// non-negative and not both zero. Zero-valued fields select the
	// defaults (1, 1), so the zero BiCriteriaPolicy is ready to use.
	WidthWeight, HeightWeight int64
	// MaxCandidates bounds the per-round shortlist (default 8).
	MaxCandidates int
}

// String names the policy.
func (BiCriteriaPolicy) String() string { return "bi-criteria" }

// resolve applies the defaults to zero-valued fields.
func (p BiCriteriaPolicy) resolve() BiCriteriaPolicy {
	if p.WidthWeight == 0 && p.HeightWeight == 0 {
		p.WidthWeight, p.HeightWeight = DefaultBiCriteriaWidthWeight, DefaultBiCriteriaHeightWeight
	}
	if p.MaxCandidates < 1 {
		p.MaxCandidates = DefaultBiCriteriaCandidates
	}
	return p
}

// score evaluates the width/height trade-off of one level structure.
func (p BiCriteriaPolicy) score(ls LevelStructure) int64 {
	return p.WidthWeight*ls.Width - p.HeightWeight*int64(ls.Height)
}

// better reports whether (s, deg, id) precedes (bs, bdeg, bid) in the
// deterministic (score, degree, id) order.
func better(s, deg int64, id int, bs, bdeg int64, bid int) bool {
	if s != bs {
		return s < bs
	}
	if deg != bdeg {
		return deg < bdeg
	}
	return id < bid
}

// PickRoot implements the bi-criteria iteration. Every sweep's height feeds
// the pseudo-diameter estimate, so the reported diameter stays comparable to
// the default policy's.
func (p BiCriteriaPolicy) PickRoot(start int, sw Sweeper) (int, int) {
	p = p.resolve()
	cur := sw.Sweep(start, p.MaxCandidates)
	maxEcc := cur.Height
	bestV, bestDeg, bestScore := start, cur.RootDeg, p.score(cur)
	seen := map[int]bool{start: true}
	for {
		// Evaluate the shortlist of the current root's last level; adopt
		// the best strict improvement as the next root. The (score,
		// degree, id) triple of the incumbent strictly decreases every
		// round, so the loop terminates.
		improved := false
		var next LevelStructure
		for _, c := range cur.Candidates {
			if seen[c.ID] {
				continue
			}
			seen[c.ID] = true
			ls := sw.Sweep(c.ID, p.MaxCandidates)
			if ls.Height > maxEcc {
				maxEcc = ls.Height
			}
			if s := p.score(ls); better(s, c.Deg, c.ID, bestScore, bestDeg, bestV) {
				bestV, bestDeg, bestScore = c.ID, c.Deg, s
				next = ls
				improved = true
			}
		}
		if !improved {
			return bestV, maxEcc
		}
		cur = next
	}
}

// Validate rejects weight combinations the score cannot order: negative
// weights and the all-zero pair (the zero pair means "defaults" only when
// both are zero at construction, which resolve handles; an explicit
// negative weight is always an error).
func (p BiCriteriaPolicy) Validate() error {
	if p.WidthWeight < 0 || p.HeightWeight < 0 {
		return fmt.Errorf("core: bi-criteria weights must be >= 0, got width=%d height=%d", p.WidthWeight, p.HeightWeight)
	}
	if p.MaxCandidates < 0 {
		return fmt.Errorf("core: bi-criteria candidate bound must be >= 0, got %d", p.MaxCandidates)
	}
	return nil
}

// candLess is the ascending (degree, id) shortlist order.
func candLess(a, b Candidate) bool {
	if a.Deg != b.Deg {
		return a.Deg < b.Deg
	}
	return a.ID < b.ID
}

// pushCandidate inserts c into the ascending (degree, id) shortlist cands,
// keeping at most max entries — the selection step every engine's Sweep uses
// to build LevelStructure.Candidates.
func pushCandidate(cands []Candidate, c Candidate, max int) []Candidate {
	return psort.InsertCapped(cands, c, max, candLess)
}
