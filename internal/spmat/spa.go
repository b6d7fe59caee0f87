package spmat

import (
	"math/bits"

	"repro/internal/psort"
)

// SPA is the sparse accumulator every SpMSpV folds into: the distributed
// CSC and DCSC local kernels and the row-partial merge at the tail of the
// distributed SpMSpV. A dense value array holds the folds, and a bitmap
// over the same index space is both the touched marker and the output
// order: draining scans its words ascending, so no sort runs unless the
// touched set is too sparse for the scan to pay.
//
// A drained SPA has every bit clear, which is what lets Reset reuse it
// without zeroing anything.
type SPA struct {
	val     []int64
	bits    Bitmap
	touched []int // first-touch order until Drain sorts it in place
	ws      psort.Scratch[int]
}

// scanWordsPerIndex is the drain rule: the bitmap scan runs when the bitmap
// has at most this many words per touched index, and sparser sets sort the
// touched list instead. Skipping an empty word costs about a nanosecond,
// while sorting costs tens of nanoseconds per index (an insertion sort of a
// short list, or radix passes with a key call per index per pass), so the
// scan pays down to about one touched index per 32 words.
const scanWordsPerIndex = 32

// Reset readies a drained s to fold over the index space [0, n).
func (s *SPA) Reset(n int) {
	if cap(s.val) < n {
		s.val = make([]int64, n)
		s.bits = NewBitmap(n)
	}
	s.val = s.val[:n]
	s.bits = s.bits[:BitmapWords(n)]
	s.touched = s.touched[:0]
}

// Fold keeps the minimum of the values folded into index i: the addition
// of the (select2nd, min) semiring, which attaches each discovered vertex to
// its minimum-label parent. The first fold at i stores v. It stays within
// the inlining budget (the rotate is 1<<(i%64) in one instruction), so the
// kernels' loops run it without a call.
func (s *SPA) Fold(i int, v int64) {
	w, b := &s.bits[i>>6], bits.RotateLeft64(1, i)
	if *w&b == 0 {
		*w |= b
		s.touched = append(s.touched, i)
	} else {
		v = min(s.val[i], v)
	}
	s.val[i] = v
}

// FoldColumn folds v into every row of col, one column of a CSC or DCSC
// block: the per-edge loop of the SpMSpV kernels.
func (s *SPA) FoldColumn(col []int32, v int64) {
	for _, r := range col {
		s.Fold(int(r), v)
	}
}

// Drain returns the touched indices in ascending order and clears every
// mark. The folded value of each stays readable through Value until the
// next Fold; the returned slice is s's storage, valid until the next Reset.
func (s *SPA) Drain() []int {
	t := s.touched
	if len(s.bits) <= scanWordsPerIndex*len(t) {
		k := 0
		for wi, w := range s.bits {
			if w == 0 {
				continue
			}
			s.bits[wi] = 0
			for ; w != 0; w &= w - 1 {
				t[k] = wi<<6 | bits.TrailingZeros64(w)
				k++
			}
		}
		return t
	}
	psort.KeyedWS(&s.ws, t, func(i int) uint64 { return uint64(i) }, 1)
	for _, i := range t {
		s.bits[i>>6] = 0 // every set bit is a touched index
	}
	return t
}

// Value returns the folded value at an index Drain returned.
func (s *SPA) Value(i int) int64 { return s.val[i] }
