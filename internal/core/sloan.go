package core

import (
	"container/heap"

	"repro/internal/spmat"
)

// Sloan computes Sloan's profile/wavefront-reducing ordering (Sloan 1986,
// the paper's reference [6]) — the classic alternative to RCM when the
// objective is the envelope rather than the bandwidth. It is included as a
// sequential quality baseline: the Sloan-vs-RCM comparison is one of the
// repository's extension experiments.
//
// The implementation is the standard two-stage algorithm: find a
// pseudo-peripheral start/end pair (the same Algorithm 2/4 search RCM
// uses), then number vertices by a max-priority queue with
//
//	priority(v) = -W1·incr(v) + W2·dist(v, end)
//
// where incr(v) is the front growth caused by numbering v and dist is the
// BFS distance to the end vertex. Ties break on vertex id, keeping the
// ordering deterministic. Defaults W1=2, W2=1 are Sloan's.
func Sloan(a *spmat.CSR) *Ordering { return SloanWeights(a, 2, 1) }

// Vertex states of Sloan's algorithm.
const (
	sloanInactive = iota
	sloanPreactive
	sloanActive
	sloanPostactive
)

// SloanWeights is Sloan with explicit weights.
func SloanWeights(a *spmat.CSR, w1, w2 int64) *Ordering {
	deg := a.Degrees()
	labels, next := unlabeled(a.N)
	s := newSeqScratch(a.N)
	// Allocated once per run: a numbered component's vertices stay
	// postactive and no edge leaves a component, so the next component
	// starts on untouched, inactive entries.
	status := make([]int, a.N)
	q := &sloanPQ{prio: make([]int64, a.N)}
	nv := int64(0)
	res := &Ordering{}
	res.Components, res.PseudoDiameter = eachComponent(DefaultOptions(), next, &seqSweeper{a: a, deg: deg, s: s}, func(start int) {
		// The pseudo-peripheral search gives the start; the end is the
		// minimum-(degree, id) vertex of its final level structure.
		_, _, last := bfsLevels(a, start, s)
		e := last[0]
		for _, v := range last[1:] {
			if deg[v] < deg[e] || (deg[v] == deg[e] && v < e) {
				e = v
			}
		}
		// The BFS from the end reaches exactly the component, and its
		// levels are the distances to the end.
		bfsLevels(a, e, s)
		for _, v := range s.queue {
			q.prio[v] = -w1*int64(deg[v]+1) + w2*int64(s.levels[v])
		}
		nv = sloanComponent(a, labels, start, nv, w1, status, q)
	})
	res.Perm = permFromLabels(labels, false) // Sloan is not reversed
	return res
}

// sloanPQ is a max-heap of (priority, vertex) with lazy deletion: stale
// entries (whose recorded priority no longer matches the current one) are
// skipped on pop.
type sloanPQ struct {
	prio []int64 // current priority per vertex
	heap []sloanItem
}

type sloanItem struct {
	p int64
	v int
}

func (q *sloanPQ) Len() int { return len(q.heap) }
func (q *sloanPQ) Less(i, j int) bool {
	if q.heap[i].p != q.heap[j].p {
		return q.heap[i].p > q.heap[j].p // max-heap
	}
	return q.heap[i].v < q.heap[j].v // deterministic tie-break
}
func (q *sloanPQ) Swap(i, j int) { q.heap[i], q.heap[j] = q.heap[j], q.heap[i] }
func (q *sloanPQ) Push(x any)    { q.heap = append(q.heap, x.(sloanItem)) }
func (q *sloanPQ) Pop() any {
	it := q.heap[len(q.heap)-1]
	q.heap = q.heap[:len(q.heap)-1]
	return it
}

func (q *sloanPQ) bump(v int, delta int64) {
	q.prio[v] += delta
	heap.Push(q, sloanItem{p: q.prio[v], v: v})
}

// sloanComponent numbers one component starting at s, with q.prio
// initialized over the component and q's heap empty.
func sloanComponent(a *spmat.CSR, labels []int64, s int, nv int64, w1 int64, status []int, q *sloanPQ) int64 {
	status[s] = sloanPreactive
	heap.Push(q, sloanItem{p: q.prio[s], v: s})
	for q.Len() > 0 {
		it := heap.Pop(q).(sloanItem)
		v := it.v
		if it.p != q.prio[v] || status[v] == sloanPostactive || status[v] == sloanInactive {
			continue // stale or already handled
		}
		if status[v] == sloanPreactive {
			// Numbering a preactive vertex activates its neighbours'
			// front contribution.
			for _, w := range a.Row(v) {
				if w == v {
					continue
				}
				q.bump(w, w1)
				if status[w] == sloanInactive {
					status[w] = sloanPreactive
				}
			}
		}
		labels[v] = nv
		nv++
		status[v] = sloanPostactive
		for _, w := range a.Row(v) {
			if w == v || status[w] != sloanPreactive {
				continue
			}
			status[w] = sloanActive
			q.bump(w, w1)
			for _, x := range a.Row(w) {
				if x == w || status[x] == sloanPostactive {
					continue
				}
				if status[x] == sloanInactive {
					status[x] = sloanPreactive
				}
				q.bump(x, w1)
			}
		}
	}
	return nv
}
