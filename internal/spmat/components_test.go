package spmat

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomSymmetric builds a random symmetric pattern on n vertices with
// about m undirected edges.
func randomSymmetric(n, m int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	var entries []Coord
	for e := 0; e < m; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		entries = append(entries, Coord{Row: i, Col: j, Val: 1}, Coord{Row: j, Col: i, Val: 1})
	}
	return FromCoords(n, entries, true)
}

// dfsComponents is the serial oracle ParallelComponents is held to: a
// depth-first search that numbers components in order of their smallest
// vertex id. It follows each stored entry in its stored direction only, so
// it is an oracle on symmetric patterns alone.
func dfsComponents(a *CSR) (comp []int, ncomp int) {
	comp = make([]int, a.N)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int
	for s := 0; s < a.N; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = ncomp
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range a.Row(v) {
				if w != v && comp[w] < 0 {
					comp[w] = ncomp
					stack = append(stack, w)
				}
			}
		}
		ncomp++
	}
	return comp, ncomp
}

func TestParallelComponentsMatchesSequential(t *testing.T) {
	withThreads(t, 8)
	for seed := int64(0); seed < 20; seed++ {
		n := 1 + int(seed)*7
		a := randomSymmetric(n, n/2+1, seed)
		wantComp, wantN := dfsComponents(a)
		for _, threads := range []int{1, 2, 4, 8, 0} {
			gotComp, gotN := a.ParallelComponents(threads)
			if gotN != wantN {
				t.Fatalf("seed %d threads %d: %d components, want %d", seed, threads, gotN, wantN)
			}
			if !reflect.DeepEqual(gotComp, wantComp) {
				t.Fatalf("seed %d threads %d: labels differ\n got %v\nwant %v", seed, threads, gotComp, wantComp)
			}
		}
	}
}

func TestParallelComponentsEmptyAndIsolated(t *testing.T) {
	withThreads(t, 4)
	empty := FromCoords(0, nil, true)
	if comp, n := empty.ParallelComponents(4); n != 0 || len(comp) != 0 {
		t.Fatalf("empty graph: got %d components, labels %v", n, comp)
	}
	iso := FromCoords(5, nil, true)
	comp, n := iso.ParallelComponents(4)
	if n != 5 {
		t.Fatalf("isolated vertices: got %d components, want 5", n)
	}
	for v, c := range comp {
		if c != v {
			t.Fatalf("isolated vertex %d labeled %d", v, c)
		}
	}
}

// TestParallelComponentsCappedAtGOMAXPROCS: a block beyond GOMAXPROCS
// costs a goroutine and adds no parallelism, so a pass at 10,000 threads
// allocates no more than one at 1 (AllocsPerRun runs at GOMAXPROCS 1).
func TestParallelComponentsCappedAtGOMAXPROCS(t *testing.T) {
	a := randomSymmetric(5000, 2500, 1)
	one := testing.AllocsPerRun(5, func() { a.ParallelComponents(1) })
	wide := testing.AllocsPerRun(5, func() { a.ParallelComponents(10000) })
	if wide > one {
		t.Errorf("ParallelComponents made %.0f allocations at 10,000 threads, %.0f at 1", wide, one)
	}
}

func TestComponentSizesAndVertices(t *testing.T) {
	// Two components: {0,2,4} (path 0-2-4) and {1,3} (edge 1-3).
	a := FromCoords(5, []Coord{
		{Row: 0, Col: 2}, {Row: 2, Col: 0},
		{Row: 2, Col: 4}, {Row: 4, Col: 2},
		{Row: 1, Col: 3}, {Row: 3, Col: 1},
	}, true)
	comp, n := a.ParallelComponents(2)
	if n != 2 {
		t.Fatalf("got %d components, want 2", n)
	}
	sizes := ComponentSizes(comp, n)
	if !reflect.DeepEqual(sizes, []int{3, 2}) {
		t.Fatalf("sizes = %v, want [3 2]", sizes)
	}
	verts, local := ComponentVertices(comp, n)
	if !reflect.DeepEqual(verts[0], []int{0, 2, 4}) || !reflect.DeepEqual(verts[1], []int{1, 3}) {
		t.Fatalf("verts = %v", verts)
	}
	for c := range verts {
		for k, v := range verts[c] {
			if int(local[v]) != k {
				t.Fatalf("local[%d] = %d, want %d", v, local[v], k)
			}
		}
	}
}

func TestSubgraphPreservesStructure(t *testing.T) {
	withThreads(t, 4)
	a := randomSymmetric(40, 60, 7)
	comp, n := a.ParallelComponents(4)
	verts, local := ComponentVertices(comp, n)
	total := 0
	for c := 0; c < n; c++ {
		sub := Subgraph(a, verts[c], local)
		if sub.N != len(verts[c]) {
			t.Fatalf("component %d: subgraph has %d rows, want %d", c, sub.N, len(verts[c]))
		}
		total += sub.N
		// Every subgraph edge must map back to an original edge, degrees
		// must match, and rows must stay sorted (relabeling preserves
		// relative order).
		for li := 0; li < sub.N; li++ {
			gi := verts[c][li]
			row := sub.Row(li)
			if len(row) != len(a.Row(gi)) {
				t.Fatalf("component %d vertex %d: degree %d, want %d", c, gi, len(row), len(a.Row(gi)))
			}
			prev := -1
			for _, lj := range row {
				if lj <= prev {
					t.Fatalf("component %d row %d not strictly sorted: %v", c, li, row)
				}
				prev = lj
				gj := verts[c][lj]
				found := false
				for _, w := range a.Row(gi) {
					if w == gj {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("subgraph edge (%d,%d) has no original edge (%d,%d)", li, lj, gi, gj)
				}
			}
		}
	}
	if total != a.N {
		t.Fatalf("components cover %d vertices, matrix has %d", total, a.N)
	}
}
