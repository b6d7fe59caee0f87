package core

import (
	"fmt"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/spmat"
	"repro/internal/tally"
)

// scheduleCorpus returns the disconnected matrices the identity tests run
// on: interleaved component ids, size skew, singletons, and a connected
// control.
func scheduleCorpus() map[string]*spmat.CSR {
	return map[string]*spmat.CSR{
		"multi":      graphgen.MultiComponent(12, 30, 17, 1),
		"nogiant":    graphgen.MultiComponent(0, 40, 9, 2),
		"singletons": graphgen.Disconnected(graphgen.Grid2D(9, 9), spmat.FromCoords(25, nil, true)),
		"pair":       graphgen.Disconnected(graphgen.Path(40), graphgen.Star(31)),
		"connected":  graphgen.Grid2D(11, 13),
	}
}

// TestScheduledOrderMatchesSequential is the core identity property: for
// every engine option set, component scheduling must reproduce the
// unscheduled sequential permutation byte for byte, at every threshold and
// worker count.
func TestScheduledOrderMatchesSequential(t *testing.T) {
	opts := map[string]Options{
		"default":   {Start: -1},
		"noreverse": {Start: -1, NoReverse: true},
		"skipperi":  {Start: -1, SkipPeripheral: true},
		"bottomup":  {Start: -1, Direction: DirBottomUp},
	}
	for gname, a := range scheduleCorpus() {
		for oname, opt := range opts {
			want := SequentialOpt(a, opt)
			for _, thr := range []int{0, 1, 8, 64, 1 << 20} {
				for _, workers := range []int{1, 3, 8} {
					got, st := ScheduledOrder(a, ScheduleOptions{Threshold: thr, Workers: workers, Options: opt})
					tag := fmt.Sprintf("%s/%s thr=%d workers=%d", gname, oname, thr, workers)
					if !equalPerm(got.Perm, want.Perm) {
						t.Fatalf("%s: scheduled permutation differs from sequential", tag)
					}
					if got.Components != want.Components || got.Components != st.Components {
						t.Errorf("%s: components %d/%d/%d disagree", tag, got.Components, want.Components, st.Components)
					}
					if st.Batched+st.Direct != st.Components {
						t.Errorf("%s: batched %d + direct %d != components %d", tag, st.Batched, st.Direct, st.Components)
					}
				}
			}
		}
	}
}

// TestScheduledOrderBigEngines drives the Big hook with every full engine
// and checks the stitched output still matches the sequential baseline.
func TestScheduledOrderBigEngines(t *testing.T) {
	withThreads(t, 4)
	bigs := map[string]func(*spmat.CSR, Options) *Ordering{
		"shared": func(sub *spmat.CSR, o Options) *Ordering {
			return SharedOpt(sub, 4, o)
		},
		"distributed": func(sub *spmat.CSR, o Options) *Ordering {
			d := Distributed(sub, DistOptions{Procs: 4, Model: tally.Edison(), Options: o})
			return &d.Ordering
		},
		"distributed/p1": func(sub *spmat.CSR, o Options) *Ordering {
			return &Distributed(sub, DistOptions{Procs: 1, Options: o}).Ordering
		},
	}
	for gname, a := range scheduleCorpus() {
		want := SequentialOpt(a, Options{Start: -1})
		for bname, big := range bigs {
			// Threshold 32 mixes batched smalls with engine-run bigs.
			got, _ := ScheduledOrder(a, ScheduleOptions{Threshold: 32, Options: Options{Start: -1}, Big: big})
			if !equalPerm(got.Perm, want.Perm) {
				t.Fatalf("%s/%s: scheduled permutation differs from sequential", gname, bname)
			}
		}
	}
}

// TestScheduledOrderPinnedStart pins the start vertex inside components
// other than the first and checks the promoted-component semantics matches
// the engines' cursor behaviour exactly.
func TestScheduledOrderPinnedStart(t *testing.T) {
	a := graphgen.MultiComponent(10, 20, 11, 3)
	comp, ncomp := a.ParallelComponents(0)
	if ncomp < 3 {
		t.Fatalf("corpus graph has %d components, want >= 3", ncomp)
	}
	// One representative start vertex per component, including the last.
	starts := map[int]int{}
	for v := a.N - 1; v >= 0; v-- {
		starts[comp[v]] = v
	}
	for c, v := range starts {
		opt := Options{Start: v}
		want := SequentialOpt(a, opt)
		for _, thr := range []int{1, 16, 1 << 20} {
			got, _ := ScheduledOrder(a, ScheduleOptions{Threshold: thr, Options: opt})
			if !equalPerm(got.Perm, want.Perm) {
				t.Fatalf("start %d (component %d) thr %d: scheduled permutation differs", v, c, thr)
			}
		}
	}
}

// TestScheduledOrderEmpty covers the n == 0 degenerate case.
func TestScheduledOrderEmpty(t *testing.T) {
	got, st := ScheduledOrder(spmat.FromCoords(0, nil, true), ScheduleOptions{})
	if len(got.Perm) != 0 || got.Components != 0 || st.Components != 0 {
		t.Fatalf("empty graph: perm %v, components %d/%d", got.Perm, got.Components, st.Components)
	}
}

func equalPerm(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
