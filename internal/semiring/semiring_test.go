package semiring

import (
	"math"
	"testing"
	"testing/quick"
)

// all lists every value of the closed Semiring type.
var all = []Semiring{Select2ndMin, Select2ndMax, Select2ndAny, PlusTimes}

func TestSelect2ndMin(t *testing.T) {
	sr := Select2ndMin
	if sr.Multiply(42) != 42 {
		t.Error("multiply must select the vector value")
	}
	if sr.Add(3, 5) != 3 || sr.Add(5, 3) != 3 {
		t.Error("add must take the min")
	}
	if sr.Add(sr.Identity(), 7) != 7 {
		t.Error("identity not absorbed")
	}
	if sr.Name() == "" {
		t.Error("empty name")
	}
}

func TestSelect2ndMax(t *testing.T) {
	sr := Select2ndMax
	if sr.Add(3, 5) != 5 || sr.Add(5, 3) != 5 {
		t.Error("add must take the max")
	}
	if sr.Add(sr.Identity(), -7) != -7 {
		t.Error("identity not absorbed")
	}
	if sr.Multiply(1) != 1 || sr.Name() == "" {
		t.Error("basics")
	}
}

func TestSelect2ndAny(t *testing.T) {
	sr := Select2ndAny
	if sr.Add(sr.Identity(), 9) != 9 {
		t.Error("identity must yield to first value")
	}
	if sr.Add(4, 9) != 4 || sr.Add(9, 4) != 9 {
		t.Error("first value must win")
	}
	if sr.Multiply(5) != 5 || sr.Name() == "" {
		t.Error("basics")
	}
}

func TestPlusTimes(t *testing.T) {
	sr := PlusTimes
	if sr.Add(2, 3) != 5 || sr.Add(-2, 3) != 1 || sr.Identity() != 0 || sr.Multiply(4) != 4 || sr.Name() == "" {
		t.Error("plus-times basics")
	}
}

// TestEveryValueSelectsAndIsNamed covers what the four values share:
// Multiply selects the vector value, and each has its own report name.
func TestEveryValueSelectsAndIsNamed(t *testing.T) {
	names := map[string]Semiring{}
	for _, sr := range all {
		for _, x := range []int64{math.MinInt64, -7, 0, 42, math.MaxInt64} {
			if got := sr.Multiply(x); got != x {
				t.Errorf("%s.Multiply(%d) = %d: must select the vector value", sr.Name(), x, got)
			}
		}
		name := sr.Name()
		if prev, dup := names[name]; dup || name == "" {
			t.Errorf("semiring %d: name %q empty or shared with %d", sr, name, prev)
		}
		names[name] = sr
	}
}

func TestQuickSemiringLaws(t *testing.T) {
	// Associativity and identity for each Add (on representative values,
	// away from the int64 extremes used as identities and markers).
	for _, sr := range all {
		f := func(a, b, c int32) bool {
			x, y, z := int64(a), int64(b), int64(c)
			if sr.Add(sr.Add(x, y), z) != sr.Add(x, sr.Add(y, z)) {
				return false
			}
			return sr.Add(sr.Identity(), x) == x
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", sr.Name(), err)
		}
	}
}

func TestIdentitiesAreExtremes(t *testing.T) {
	for sr, want := range map[Semiring]int64{
		Select2ndMin: math.MaxInt64,
		Select2ndMax: math.MinInt64,
		Select2ndAny: math.MaxInt64,
		PlusTimes:    0,
	} {
		if got := sr.Identity(); got != want {
			t.Errorf("%s identity = %d, want %d", sr.Name(), got, want)
		}
	}
}
