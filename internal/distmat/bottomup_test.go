package distmat

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/grid"
)

// gatherSpV collects the full (index, value) content of a distributed sparse
// vector at every rank, for comparisons.
func gatherSpV(x *SpV) ([]int, []int64) {
	inds := comm.AllGathervConcat(x.D.G.World, x.Loc.Ind)
	vals := comm.AllGathervConcat(x.D.G.World, x.Loc.Val)
	return inds, vals
}

// TestBottomUpStepMatchesSpMSpV is the distributed byte-identity oracle at
// the primitive level: for random symmetric matrices, visited states and
// frontiers, BottomUpStep must equal SpMSpV followed by the unvisited
// SELECT — same support, same values — across grid sizes and both block
// storages, for the ordering fold and the label-free early-exit flavour.
func TestBottomUpStepMatchesSpMSpV(t *testing.T) {
	for _, p := range []int{1, 4, 9} {
		for _, hyper := range []bool{false, true} {
			for trial := 0; trial < 4; trial++ {
				name := fmt.Sprintf("p%d/hyper=%v/trial%d", p, hyper, trial)
				t.Run(name, func(t *testing.T) {
					n := 30 + trial*17
					a := randSym(int64(trial)+100, n, 4*n)
					rng := rand.New(rand.NewSource(int64(trial)))
					// Visited state: about half the vertices, labelled;
					// frontier: a random subset of the visited ones.
					vis := make([]int64, n)
					var frontier []int
					for v := 0; v < n; v++ {
						vis[v] = -1
						if rng.Intn(2) == 0 {
							vis[v] = int64(rng.Intn(500))
							if rng.Intn(2) == 0 {
								frontier = append(frontier, v)
							}
						}
					}
					type result struct {
						ind []int
						val []int64
					}
					var td, buo, bup result
					comm.Run(p, nil, func(c *comm.Comm) {
						g := grid.Square(c)
						d := grid.NewDist(g, n)
						m := NewMat(d, a)
						if hyper {
							m.EnableDCSC()
						}
						R := NewVec(d, -1)
						for v := R.Lo; v < R.Hi; v++ {
							R.Set(v, vis[v])
						}
						mkFrontier := func() *SpV {
							x := NewSpV(d)
							for _, v := range frontier {
								if x.Owns(v) {
									x.Loc.Append(v, vis[v])
								}
							}
							return x
						}
						// Top-down reference: SpMSpV + SELECT.
						ref := SpMSpV(m, mkFrontier())
						ref.SelectUnlabeled(R)
						// Bottom-up, ordering fold.
						bu := BottomUpStep(m, mkFrontier(), R, false)
						// Bottom-up, label-free early exit.
						bl := BottomUpStep(m, mkFrontier(), R, true)
						i1, v1 := gatherSpV(ref)
						i2, v2 := gatherSpV(bu)
						i3, v3 := gatherSpV(bl)
						if c.Rank() == 0 {
							td = result{i1, v1}
							buo = result{i2, v2}
							bup = result{i3, v3}
						}
					})
					if len(buo.ind) != len(td.ind) {
						t.Fatalf("bottom-up support %d, top-down %d", len(buo.ind), len(td.ind))
					}
					for k := range td.ind {
						if buo.ind[k] != td.ind[k] || buo.val[k] != td.val[k] {
							t.Fatalf("bottom-up[%d] = (%d,%d), top-down (%d,%d)",
								k, buo.ind[k], buo.val[k], td.ind[k], td.val[k])
						}
					}
					if len(bup.ind) != len(td.ind) {
						t.Fatalf("label-free support %d, top-down %d", len(bup.ind), len(td.ind))
					}
					for k := range td.ind {
						if bup.ind[k] != td.ind[k] || bup.val[k] != 0 {
							t.Fatalf("label-free[%d] = (%d,%d), want (%d,0)",
								k, bup.ind[k], bup.val[k], td.ind[k])
						}
					}
				})
			}
		}
	}
}

func TestCountWithDegree(t *testing.T) {
	a := randSym(5, 40, 100)
	deg := a.Degrees()
	for _, p := range []int{1, 4} {
		var cnt, mf int64
		onGrid(t, p, a.N, func(d *grid.Dist) {
			m := NewMat(d, a)
			D := DegreeVec(m)
			x := NewSpV(d)
			for v := 0; v < a.N; v += 3 {
				if x.Owns(v) {
					x.Loc.Append(v, 1)
				}
			}
			c, f := x.CountWithDegree(D)
			if d.G.World.Rank() == 0 {
				cnt, mf = c, f
			}
		})
		wantCnt, wantMf := int64(0), int64(0)
		for v := 0; v < a.N; v += 3 {
			wantCnt++
			wantMf += int64(deg[v])
		}
		if cnt != wantCnt || mf != wantMf {
			t.Errorf("p=%d: counts (%d,%d), want (%d,%d)", p, cnt, mf, wantCnt, wantMf)
		}
	}
}

func TestDegreeOf(t *testing.T) {
	a := randSym(9, 35, 80)
	deg := a.Degrees()
	onGrid(t, 4, a.N, func(d *grid.Dist) {
		m := NewMat(d, a)
		D := DegreeVec(m)
		for _, v := range []int{0, 7, 34} {
			if got := DegreeOf(D, v); got != int64(deg[v]) {
				panic(fmt.Sprintf("DegreeOf(%d) = %d, want %d", v, got, deg[v]))
			}
		}
	})
}
