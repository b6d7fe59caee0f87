package core

import (
	"reflect"
	"testing"

	"repro/internal/graphgen"
)

// TestDirectionPolicyFlipSequence drives synthetic frontier-growth
// sequences through the switch heuristic and checks that it flips
// top-down → bottom-up → top-down exactly at the documented thresholds:
// down when growing and mf·α > mu, back up when shrinking and cnt·β < n.
func TestDirectionPolicyFlipSequence(t *testing.T) {
	const n = 1000
	opt := Options{Direction: DirAuto, DirAlpha: 14, DirBeta: 24}
	type level struct {
		cnt, mf, mu  int64
		wantBottomUp bool
	}
	cases := []struct {
		name   string
		levels []level
	}{
		{
			// The canonical low-diameter shape: tiny root, explosive
			// middle, shrinking tail.
			name: "grow-then-shrink",
			levels: []level{
				{cnt: 1, mf: 4, mu: 5000, wantBottomUp: false},     // 4·14 = 56 < 5000
				{cnt: 30, mf: 300, mu: 4700, wantBottomUp: false},  // 300·14 = 4200 < 4700
				{cnt: 400, mf: 3000, mu: 1700, wantBottomUp: true}, // 3000·14 > 1700: flip down
				{cnt: 500, mf: 1500, mu: 200, wantBottomUp: true},  // 500·24 = 12000 ≥ 1000: stay
				{cnt: 60, mf: 100, mu: 100, wantBottomUp: true},    // 60·24 = 1440 ≥ 1000: stay
				{cnt: 30, mf: 50, mu: 50, wantBottomUp: false},     // shrinking, 30·24 = 720 < 1000: flip up
				{cnt: 50, mf: 100, mu: 40, wantBottomUp: true},     // regrown past n/β with mf·α > mu: re-flip
				{cnt: 5, mf: 10, mu: 40, wantBottomUp: false},      // thin shrinking tail: back to top-down
			},
		},
		{
			// Exact boundaries: mf·α == mu must NOT flip down (strict >),
			// cnt·β == n must NOT flip up (strict <).
			name: "boundaries",
			levels: []level{
				{cnt: 50, mf: 100, mu: 1400, wantBottomUp: false},       // 100·14 == 1400: strict >, stay up
				{cnt: 50, mf: 100, mu: 1399, wantBottomUp: true},        // growing (equal), 100·14 > 1399, 50·24 ≥ 1000: flip down
				{cnt: 52, mf: 10, mu: 9999, wantBottomUp: true},         // still growing: stay down
				{cnt: 1000 / 24, mf: 10, mu: 9999, wantBottomUp: false}, // shrinking, 41·24 = 984 < 1000: flip up
			},
		},
		{
			// A high-diameter mesh never triggers: frontiers stay thin.
			name: "never-flips",
			levels: []level{
				{cnt: 1, mf: 4, mu: 4000, wantBottomUp: false},
				{cnt: 8, mf: 30, mu: 3970, wantBottomUp: false},
				{cnt: 12, mf: 44, mu: 3926, wantBottomUp: false},
				{cnt: 12, mf: 44, mu: 3882, wantBottomUp: false},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol := newDirPolicy(opt, n)
			for i, l := range tc.levels {
				got := pol.step(l.cnt, l.mf, l.mu)
				if got != l.wantBottomUp {
					t.Errorf("level %d (cnt=%d mf=%d mu=%d): bottomUp = %v, want %v",
						i, l.cnt, l.mf, l.mu, got, l.wantBottomUp)
				}
			}
		})
	}
}

func TestDirectionPolicyForcedAndDefaults(t *testing.T) {
	pol := newDirPolicy(Options{Direction: DirTopDown}, 100)
	if pol.step(100, 10000, 1) {
		t.Error("forced top-down ran bottom-up")
	}
	pol = newDirPolicy(Options{Direction: DirBottomUp}, 100)
	if !pol.step(1, 1, 1000000) {
		t.Error("forced bottom-up ran top-down")
	}
	pol = newDirPolicy(Options{}, 100)
	if pol.alpha != DefaultDirAlpha || pol.beta != DefaultDirBeta {
		t.Errorf("defaults not applied: alpha=%d beta=%d", pol.alpha, pol.beta)
	}
	if pol.forced != DirAuto {
		t.Errorf("zero Options not Auto: %v", pol.forced)
	}
}

func TestDirectionStrings(t *testing.T) {
	for d, want := range map[Direction]string{DirAuto: "auto", DirTopDown: "top-down", DirBottomUp: "bottom-up"} {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), want)
		}
	}
}

// TestDirectionMultiComponent pins the byte-identity on component-heavy
// inputs, where every sweep starts with the already-ordered components
// marked visited: every engine, forced bottom-up and aggressive Auto, must
// match the sequential ordering across all components.
func TestDirectionMultiComponent(t *testing.T) {
	withThreads(t, 4)
	a, _ := graphgen.Scramble(graphgen.Disconnected(
		graphgen.Grid2D(12, 12), graphgen.Grid3D(5, 5, 5, 1, true),
		graphgen.Path(17), graphgen.Star(9)), 11)
	want := Sequential(a)
	for _, opt := range []Options{
		{Start: -1, Direction: DirBottomUp},
		{Start: -1, DirAlpha: 2, DirBeta: 64},
	} {
		for name, got := range map[string]*Ordering{
			"shared":         SharedOpt(a, 4, opt),
			"distributed":    &Distributed(a, DistOptions{Procs: 4, Options: opt}).Ordering,
			"distributed/p1": &Distributed(a, DistOptions{Procs: 1, Options: opt}).Ordering,
		} {
			if !reflect.DeepEqual(got.Perm, want.Perm) {
				t.Errorf("%s (%+v): permutation differs from sequential", name, opt)
			}
			if got.Components != want.Components {
				t.Errorf("%s: components %d, want %d", name, got.Components, want.Components)
			}
		}
	}
}

// TestDirectionLevelsRecorded checks the per-direction level accounting of
// the distributed engine: a forced bottom-up run reports only bottom-up
// levels, a forced top-down run only top-down levels, an aggressive Auto
// run reports both — identical counts regardless of the process count,
// because every rank decides from the same AllReduced numbers (a diverged
// rank would deadlock the collectives long before this assertion).
func TestDirectionLevelsRecorded(t *testing.T) {
	a := graphgen.SuiteByName("ldoor").Build(12)
	for _, procs := range []int{1, 4, 9} {
		td := Distributed(a, DistOptions{Procs: procs, Options: Options{Start: -1, Direction: DirTopDown}})
		if td.Breakdown.TopDownLevels == 0 || td.Breakdown.BottomUpLevels != 0 {
			t.Errorf("procs=%d forced top-down: levels td=%d bu=%d",
				procs, td.Breakdown.TopDownLevels, td.Breakdown.BottomUpLevels)
		}
		bu := Distributed(a, DistOptions{Procs: procs, Options: Options{Start: -1, Direction: DirBottomUp}})
		if bu.Breakdown.BottomUpLevels == 0 || bu.Breakdown.TopDownLevels != 0 {
			t.Errorf("procs=%d forced bottom-up: levels td=%d bu=%d",
				procs, bu.Breakdown.TopDownLevels, bu.Breakdown.BottomUpLevels)
		}
		if bu.Breakdown.BottomUpLevels != td.Breakdown.TopDownLevels {
			t.Errorf("procs=%d: %d bottom-up levels vs %d top-down levels — BFS shape drifted",
				procs, bu.Breakdown.BottomUpLevels, td.Breakdown.TopDownLevels)
		}
		auto := Distributed(a, DistOptions{Procs: procs, Options: Options{Start: -1, DirAlpha: 2, DirBeta: 64}})
		if auto.Breakdown.BottomUpLevels == 0 || auto.Breakdown.TopDownLevels == 0 {
			t.Errorf("procs=%d aggressive auto ran single-direction: td=%d bu=%d",
				procs, auto.Breakdown.TopDownLevels, auto.Breakdown.BottomUpLevels)
		}
		total := auto.Breakdown.TopDownLevels + auto.Breakdown.BottomUpLevels
		if total != td.Breakdown.TopDownLevels {
			t.Errorf("procs=%d: auto ran %d levels, top-down %d", procs, total, td.Breakdown.TopDownLevels)
		}
	}
}
