package service

import (
	"time"
	"unsafe"
)

// lruEntryOverheadBytes approximates the bookkeeping memo.Cache wraps
// around every kept value: its entry (key string header, value interface,
// size: the struct below), the entry's list.Element (five words), and the
// items map slot (string header + element pointer + bucket share). The
// entry's key string shares its bytes with the response's Key field, so
// only the headers are counted here; the bytes count once, below.
const lruEntryOverheadBytes = int64(unsafe.Sizeof(struct {
	key   string
	val   any
	bytes int64
}{})) + 48 + 64

// entryBytes is the shared cache's size function: the accounted size of a
// cached ordering or components result.
func entryBytes(_ string, v any) int64 {
	switch r := v.(type) {
	case *Response:
		return responseBytes(r)
	case *ComponentsResponse:
		return componentsBytes(r)
	}
	return -1
}

// responseBytes accounts a cached ordering's resident size exactly as
// stored: the Response struct itself (embedded before/after stats
// included), its Key string, the permutation slice, the modelled
// breakdown with its per-phase entries and name strings, the component
// scheduler's stats when present, and the LRU bookkeeping around the
// entry. OPERATIONS.md's fleet cache-sizing math divides budgets by this
// number, so everything the entry keeps alive must be counted — the
// permutation slice is ~everything for large matrices, but on small-matrix
// fleets the fixed part dominates and undercounting it once per entry
// multiplies across tens of thousands of entries.
func responseBytes(r *Response) int64 {
	b := lruEntryOverheadBytes + int64(unsafe.Sizeof(*r)) + int64(len(r.Key)) + int64(8*len(r.Perm))
	if r.Modeled != nil {
		b += int64(unsafe.Sizeof(*r.Modeled))
		for _, p := range r.Modeled.Phases {
			b += int64(unsafe.Sizeof(p)) + int64(len(p.Name))
		}
	}
	if r.ComponentStats != nil {
		b += int64(unsafe.Sizeof(*r.ComponentStats))
	}
	return b
}

// componentsBytes accounts a cached ComponentsResponse the same way: the
// struct, its Key string, and the per-vertex label and per-component size
// slices (8 bytes per int), plus the LRU bookkeeping.
func componentsBytes(r *ComponentsResponse) int64 {
	return lruEntryOverheadBytes + int64(unsafe.Sizeof(*r)) + int64(len(r.Key)) +
		int64(8*(len(r.Labels)+len(r.Sizes)))
}

// latencyHist is one backend's wall-clock latency histogram: cumulative
// counts at power-of-two bucket bounds from 16 µs to ~0.5 s, plus an
// overflow bucket — the shape /metrics exports in the Prometheus histogram
// convention.
type latencyHist struct {
	counts  [len(latencyBoundsNs) + 1]uint64
	totalNs int64
	n       uint64
}

// latencyBoundsNs are the bucket upper bounds in nanoseconds: 16 µs × 2^k.
var latencyBoundsNs = func() [16]int64 {
	var b [16]int64
	ns := int64(16_000)
	for i := range b {
		b[i] = ns
		ns *= 2
	}
	return b
}()

func (h *latencyHist) observe(d time.Duration) {
	ns := d.Nanoseconds()
	h.totalNs += ns
	h.n++
	for i, bound := range latencyBoundsNs {
		if ns <= bound {
			h.counts[i]++
			return
		}
	}
	h.counts[len(latencyBoundsNs)]++
}

// snapshot renders the histogram as cumulative (le, count) pairs.
func (h *latencyHist) snapshot() LatencyStats {
	out := LatencyStats{
		Count:        h.n,
		TotalSeconds: float64(h.totalNs) / 1e9,
		Buckets:      make([]LatencyBucket, 0, len(h.counts)),
	}
	var cum uint64
	for i, c := range h.counts[:len(latencyBoundsNs)] {
		cum += c
		out.Buckets = append(out.Buckets, LatencyBucket{
			LeSeconds: float64(latencyBoundsNs[i]) / 1e9,
			Count:     cum,
		})
	}
	return out
}
