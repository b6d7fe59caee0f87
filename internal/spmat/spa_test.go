package spmat

import (
	"math/rand"
	"sort"
	"testing"
)

// TestSPAMatchesMapOracle folds random index multisets into one reused
// accumulator, over index spaces of every size so the drain both scans the
// bitmap and sorts the touched list, and checks the drained order, every
// folded value, and that the drain leaves every bit clear.
func TestSPAMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s SPA
	scans, sorts := 0, 0
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(20000)
		folds := rng.Intn(1 + n/[]int{1, 16, 512}[trial%3])
		s.Reset(n)
		want := map[int]int64{}
		fold := func(i int, v int64) {
			if old, ok := want[i]; ok {
				want[i] = min(old, v)
			} else {
				want[i] = v
			}
		}
		for f := 0; f < folds; {
			if trial%2 == 0 {
				i, v := rng.Intn(n), int64(rng.Intn(1000))
				s.Fold(i, v)
				fold(i, v)
				f++
				continue
			}
			col := make([]int32, 1+rng.Intn(8))
			for k := range col {
				col[k] = int32(rng.Intn(n))
			}
			v := int64(rng.Intn(1000))
			s.FoldColumn(col, v)
			for _, r := range col {
				fold(int(r), v)
			}
			f += len(col)
		}
		if len(s.bits) <= scanWordsPerIndex*len(want) {
			scans++
		} else {
			sorts++
		}
		keys := make([]int, 0, len(want))
		for i := range want {
			keys = append(keys, i)
		}
		sort.Ints(keys)
		got := s.Drain()
		if len(got) != len(keys) {
			t.Fatalf("trial %d (n=%d): drained %d indices, want %d", trial, n, len(got), len(keys))
		}
		for k, i := range got {
			if i != keys[k] {
				t.Fatalf("trial %d (n=%d): drain[%d] = %d, want %d", trial, n, k, i, keys[k])
			}
			if s.Value(i) != want[i] {
				t.Fatalf("trial %d (n=%d): value at %d = %d, want %d", trial, n, i, s.Value(i), want[i])
			}
		}
		for w, word := range s.bits[:cap(s.bits)] {
			if word != 0 {
				t.Fatalf("trial %d: word %d = %#x after the drain", trial, w, word)
			}
		}
	}
	if scans == 0 || sorts == 0 {
		t.Fatalf("the drain rule took the scan %d times and the sort %d times: both must run", scans, sorts)
	}
}
