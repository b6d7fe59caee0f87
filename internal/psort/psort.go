// Package psort provides the deterministic sorts of the frontier pipeline:
// KeyedWS and LexWS, stable linear-time sorts by unsigned integer keys —
// counting sort when the key range is compact, LSD radix (8-bit digits,
// uniform digits skipped) otherwise, with parallel histogram+scatter on
// large inputs. The RCM frontier sorts are all keyed by small non-negative
// integers ((parent label, degree, vertex id) — the classic linear-time
// Cuthill-McKee labeling of George & Liu), so every per-level sort of the
// pipeline runs in O(n) instead of O(n log n). Being stable by
// construction, the sorts are deterministic regardless of goroutine
// scheduling. InsertCapped, the bounded top-K insertion of the start-vertex
// shortlists, completes the package.
package psort

import (
	"math/bits"

	"repro/internal/par"
)

// minParallel is the slice size below which the radix passes run
// sequentially; goroutine overheads dominate under it.
const minParallel = 4096

// minKeyed is the size below which the keyed sorts fall back to a stable
// insertion sort (typical adjacency lists).
const minKeyed = 48

// countingMaxSpan bounds the key span of the single-pass counting sort;
// above it (or above 4n) the radix path is cheaper.
const countingMaxSpan = 1 << 16

// Scratch holds the reusable buffers of the keyed sorts so steady-state
// callers (one sort per BFS level) run allocation-free. The zero value is
// ready to use; buffers grow on demand and are retained.
type Scratch[T any] struct {
	buf    []T
	counts []int
	bounds []int
	hists  [][256]int
}

func (s *Scratch[T]) slice(n int) []T {
	if cap(s.buf) < n {
		s.buf = make([]T, n)
	}
	return s.buf[:n]
}

func (s *Scratch[T]) countBuf(n int) []int {
	if cap(s.counts) < n {
		s.counts = make([]int, n)
	}
	c := s.counts[:n]
	for i := range c {
		c[i] = 0
	}
	return c
}

// KeyedWS sorts data ascending by key. It is stable, deterministic and
// runs in linear time: a counting sort when the key range is compact, LSD
// radix otherwise, parallelised over up to threads goroutines on large
// inputs. ws is the reusable scratch workspace; nil allocates locally.
func KeyedWS[T any](ws *Scratch[T], data []T, key func(T) uint64, threads int) {
	n := len(data)
	if n < 2 {
		return
	}
	if n < minKeyed {
		insertionByKey(data, key)
		return
	}
	if ws == nil {
		ws = &Scratch[T]{}
	}
	if threads < 1 {
		threads = 1
	}
	lo, hi := key(data[0]), key(data[0])
	for i := 1; i < n; i++ {
		k := key(data[i])
		if k < lo {
			lo = k
		}
		if k > hi {
			hi = k
		}
	}
	if lo == hi {
		return
	}
	span := hi - lo + 1 // 0 on full-range overflow, handled by the radix path
	if span != 0 && span <= uint64(4*n) && span <= countingMaxSpan {
		countingSort(ws, data, lo, int(span), key)
		return
	}
	radixSort(ws, data, lo, hi, key, threads)
}

// LexWS sorts data lexicographically by keys (keys[0] is the primary key),
// stable, deterministic and linear: one stable KeyedWS pass per key,
// least-significant first. ws is the reusable scratch workspace; nil
// allocates locally.
func LexWS[T any](ws *Scratch[T], data []T, threads int, keys ...func(T) uint64) {
	if len(data) < minKeyed {
		// One stable insertion pass over the composite order beats one
		// insertion pass per key on the tiny slices (adjacency lists,
		// shallow frontiers).
		insertionLex(data, keys)
		return
	}
	if ws == nil {
		ws = &Scratch[T]{}
	}
	for i := len(keys) - 1; i >= 0; i-- {
		KeyedWS(ws, data, keys[i], threads)
	}
}

// lexLess is the composite (keys[0] primary) strict order.
func lexLess[T any](a, b T, keys []func(T) uint64) bool {
	for _, key := range keys {
		ka, kb := key(a), key(b)
		if ka != kb {
			return ka < kb
		}
	}
	return false
}

// insertionLex is the stable small-slice fallback of LexWS.
func insertionLex[T any](data []T, keys []func(T) uint64) {
	for i := 1; i < len(data); i++ {
		v := data[i]
		j := i - 1
		for j >= 0 && lexLess(v, data[j], keys) {
			data[j+1] = data[j]
			j--
		}
		data[j+1] = v
	}
}

// insertionByKey is the stable small-slice fallback.
func insertionByKey[T any](data []T, key func(T) uint64) {
	for i := 1; i < len(data); i++ {
		v := data[i]
		kv := key(v)
		j := i - 1
		for j >= 0 && key(data[j]) > kv {
			data[j+1] = data[j]
			j--
		}
		data[j+1] = v
	}
}

// countingSort is the single-pass stable counting sort for compact spans.
func countingSort[T any](ws *Scratch[T], data []T, lo uint64, span int, key func(T) uint64) {
	n := len(data)
	counts := ws.countBuf(span)
	for i := 0; i < n; i++ {
		counts[key(data[i])-lo]++
	}
	sum := 0
	for d := 0; d < span; d++ {
		c := counts[d]
		counts[d] = sum
		sum += c
	}
	buf := ws.slice(n)
	for i := 0; i < n; i++ {
		d := key(data[i]) - lo
		buf[counts[d]] = data[i]
		counts[d]++
	}
	copy(data, buf)
}

// radixSort runs stable LSD radix passes of 8-bit digits over key-lo,
// skipping passes whose digit is uniform across the input. (KeyedWS has
// already returned when lo == hi, so for the full-range span overflow
// hi-lo is MaxUint64 and the pass count below is 8, as required.)
func radixSort[T any](ws *Scratch[T], data []T, lo, hi uint64, key func(T) uint64, threads int) {
	n := len(data)
	passes := (bits.Len64(hi-lo) + 7) / 8
	chunks := 1
	if threads > 1 && n >= minParallel {
		chunks = threads
		if chunks > n/minParallel+1 {
			chunks = n/minParallel + 1
		}
	}
	buf := ws.slice(n)
	src, dst := data, buf
	for p := 0; p < passes; p++ {
		shift := uint(8 * p)
		if radixPass(ws, src, dst, lo, shift, key, chunks) {
			src, dst = dst, src
		}
	}
	if &src[0] != &data[0] {
		copy(data, src)
	}
}

// radixPass performs one stable scatter by the digit at shift; it reports
// whether a scatter happened (false when the digit is uniform, in which
// case dst is untouched). The bounds and histogram buffers come from the
// scratch, and a single chunk runs on the calling goroutine, so the radix
// path stays allocation-free in steady state.
func radixPass[T any](ws *Scratch[T], src, dst []T, lo uint64, shift uint, key func(T) uint64, chunks int) bool {
	n := len(src)
	if cap(ws.bounds) < chunks+1 {
		ws.bounds = make([]int, chunks+1)
	}
	bounds := ws.bounds[:chunks+1]
	for c := 0; c <= chunks; c++ {
		bounds[c] = c * n / chunks
	}
	// Per-chunk digit histograms.
	if cap(ws.hists) < chunks {
		ws.hists = make([][256]int, chunks)
	}
	hists := ws.hists[:chunks]
	for c := range hists {
		hists[c] = [256]int{}
	}
	if chunks == 1 {
		digitHist(&hists[0], src, lo, shift, key)
	} else {
		par.Blocks(bounds, func(c, a, b int) { digitHist(&hists[c], src[a:b], lo, shift, key) })
	}
	// Exclusive scan over (digit, chunk): chunk c's first slot for digit d.
	var total [256]int
	for d := 0; d < 256; d++ {
		for c := 0; c < chunks; c++ {
			total[d] += hists[c][d]
		}
		if total[d] == n {
			return false // uniform digit: pass is the identity
		}
	}
	sum := 0
	for d := 0; d < 256; d++ {
		for c := 0; c < chunks; c++ {
			h := hists[c][d]
			hists[c][d] = sum
			sum += h
		}
	}
	// Stable scatter, each chunk in input order.
	if chunks == 1 {
		digitScatter(&hists[0], src, dst, lo, shift, key)
	} else {
		par.Blocks(bounds, func(c, a, b int) { digitScatter(&hists[c], src[a:b], dst, lo, shift, key) })
	}
	return true
}

// digitHist counts the digits at shift of src's keys into h.
func digitHist[T any](h *[256]int, src []T, lo uint64, shift uint, key func(T) uint64) {
	for _, v := range src {
		h[(key(v)-lo)>>shift&0xff]++
	}
}

// digitScatter moves src into dst by the digit at shift, in input order,
// advancing off[d], the next slot for digit d.
func digitScatter[T any](off *[256]int, src, dst []T, lo uint64, shift uint, key func(T) uint64) {
	for _, v := range src {
		d := (key(v) - lo) >> shift & 0xff
		dst[off[d]] = v
		off[d]++
	}
}

// InsertCapped inserts c into the ascending (by less) shortlist list,
// keeping at most max entries: the bounded top-K selection of the
// start-vertex candidate shortlists. list must already be shortlist-ordered;
// the returned slice reuses its storage. O(max) per insert — the shortlists
// are small by construction.
func InsertCapped[T any](list []T, c T, max int, less func(a, b T) bool) []T {
	if len(list) == max {
		if !less(c, list[max-1]) {
			return list
		}
		list = list[:max-1]
	}
	pos := len(list)
	for pos > 0 && less(c, list[pos-1]) {
		pos--
	}
	var zero T
	list = append(list, zero)
	copy(list[pos+1:], list[pos:])
	list[pos] = c
	return list
}
