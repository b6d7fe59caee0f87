package spmat

import (
	"fmt"
	"strings"
)

// Info is the per-matrix structural summary reported by the matrix-suite
// table (Fig. 3 of the paper).
type Info struct {
	Name       string
	N          int
	NNZ        int
	Bandwidth  int
	Profile    int64
	Components int
	MaxDegree  int
	AvgDegree  float64
}

// Summarize computes the structural summary of a matrix: bandwidth and
// profile from one OrderStats pass, components from the lock-free
// ParallelComponents pass, and one Degrees result for both the maximum and
// the average degree.
func Summarize(name string, a *CSR) Info {
	maxd, sum := 0, 0
	for _, d := range a.Degrees() {
		maxd = max(maxd, d)
		sum += d
	}
	_, ncomp := a.ParallelComponents(0)
	avg := 0.0
	if a.N > 0 {
		avg = float64(sum) / float64(a.N)
	}
	st := a.OrderStats(nil, 0)
	return Info{
		Name:       name,
		N:          a.N,
		NNZ:        a.NNZ(),
		Bandwidth:  st.Bandwidth,
		Profile:    st.Profile,
		Components: ncomp,
		MaxDegree:  maxd,
		AvgDegree:  avg,
	}
}

// String renders the summary on one line.
func (in Info) String() string {
	return fmt.Sprintf("%-14s n=%-9d nnz=%-10d bw=%-8d profile=%-12d comps=%d", in.Name, in.N, in.NNZ, in.Bandwidth, in.Profile, in.Components)
}

// SpyString renders an ASCII density plot of the matrix on a w×h character
// grid: ' ' for empty cells, then '.', ':', '*', '#' with increasing nonzero
// density. It is the reproduction's stand-in for the spy plots in Fig. 3.
func (a *CSR) SpyString(w, h int) string {
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	if a.N == 0 {
		return "(empty)\n"
	}
	cells := make([]int, w*h)
	for i := 0; i < a.N; i++ {
		ci := i * h / a.N
		for _, j := range a.Row(i) {
			cj := j * w / a.N
			cells[ci*w+cj]++
		}
	}
	maxc := 0
	for _, c := range cells {
		if c > maxc {
			maxc = c
		}
	}
	var sb strings.Builder
	glyphs := []byte{' ', '.', ':', '*', '#'}
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			v := cells[r*w+c]
			g := 0
			if v > 0 && maxc > 0 {
				g = 1 + v*(len(glyphs)-2)/maxc
				if g >= len(glyphs) {
					g = len(glyphs) - 1
				}
			}
			sb.WriteByte(glyphs[g])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
