package distmat

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

// IsSorted reports whether indices are strictly increasing.
func (x *Sp) IsSorted() bool {
	for i := 1; i < len(x.Ind); i++ {
		if x.Ind[i] <= x.Ind[i-1] {
			return false
		}
	}
	return true
}

// TupleLess is the lexicographic (parent, degree, vertex) order.
func TupleLess(a, b Tuple) bool {
	if a.Parent != b.Parent {
		return a.Parent < b.Parent
	}
	if a.Degree != b.Degree {
		return a.Degree < b.Degree
	}
	return a.Vertex < b.Vertex
}

func TestSpBasics(t *testing.T) {
	x := &Sp{}
	if x.Len() != 0 {
		t.Error("zero value not empty")
	}
	x.Append(3, 30)
	x.Append(7, 70)
	if x.Len() != 2 || !x.IsSorted() {
		t.Errorf("after append: %+v", x)
	}
}

func TestIsSorted(t *testing.T) {
	if !(&Sp{Ind: []int{1, 2, 5}}).IsSorted() {
		t.Error("sorted reported unsorted")
	}
	if (&Sp{Ind: []int{1, 1}}).IsSorted() {
		t.Error("duplicate indices reported sorted")
	}
	if (&Sp{Ind: []int{2, 1}}).IsSorted() {
		t.Error("unsorted reported sorted")
	}
}

func TestTuplesAndSort(t *testing.T) {
	ts := []Tuple{{Parent: 7, Degree: 2, Vertex: 0}, {Parent: 5, Degree: 9, Vertex: 1}, {Parent: 7, Degree: 1, Vertex: 2}}
	SortTuplesWS(nil, ts)
	// Parent 5 first; then parent 7 ordered by degree (vertex 2 deg 1
	// before vertex 0 deg 2).
	want := []int{1, 2, 0}
	for i, tu := range ts {
		if tu.Vertex != want[i] {
			t.Fatalf("sorted order %v, want %v", ts, want)
		}
	}
}

func TestTupleLessTieBreaking(t *testing.T) {
	a := Tuple{1, 1, 1}
	b := Tuple{1, 1, 2}
	if !TupleLess(a, b) || TupleLess(b, a) {
		t.Error("vertex tie-break wrong")
	}
	if TupleLess(a, a) {
		t.Error("irreflexive violated")
	}
}

func TestQuickSortTuplesMatchesLexicographic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(60)
		ts := make([]Tuple, n)
		for i := range ts {
			ts[i] = Tuple{Parent: int64(r.Intn(5)), Degree: int64(r.Intn(4)), Vertex: i}
		}
		ref := append([]Tuple(nil), ts...)
		sort.Slice(ref, func(a, b int) bool { return TupleLess(ref[a], ref[b]) })
		SortTuplesWS(nil, ts)
		if len(ts) != len(ref) {
			return false
		}
		for i := range ts {
			if ts[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFill checks that NewVec fills every local entry, on every rank.
func TestFill(t *testing.T) {
	onGrid(t, 4, 10, func(d *grid.Dist) {
		v := NewVec(d, 7)
		want := make([]int64, v.Hi-v.Lo)
		for i := range want {
			want[i] = 7
		}
		if !reflect.DeepEqual(v.Data, want) {
			t.Errorf("rank %d: NewVec(d, 7) = %v", d.G.World.Rank(), v.Data)
		}
	})
}
