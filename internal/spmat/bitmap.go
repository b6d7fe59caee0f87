package spmat

// Bitmap is a dense bit set over vertex or row/column index spaces, backed
// by 64-bit words. It is the frontier/visited mask of the direction-optimized
// (bottom-up) kernels: the words slice can ride the dense collectives of the
// distributed runtime directly (OR-reduced along a processor row or column),
// which is what makes the bottom-up frontier exchange 64× denser than the
// (index, value) entry lists of the top-down SpMSpV.
type Bitmap []uint64

// BitmapWords returns the number of 64-bit words backing a bitmap over [0, n).
func BitmapWords(n int) int { return (n + 63) / 64 }

// NewBitmap returns a cleared bitmap over [0, n).
func NewBitmap(n int) Bitmap { return make(Bitmap, BitmapWords(n)) }

// Reuse returns b resized to cover [0, n) with every bit cleared, reusing the
// backing array when it is large enough.
func (b Bitmap) Reuse(n int) Bitmap {
	w := BitmapWords(n)
	if cap(b) < w {
		return make(Bitmap, w)
	}
	b = b[:w]
	for i := range b {
		b[i] = 0
	}
	return b
}

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Get reports bit i.
func (b Bitmap) Get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }
