package spmat

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDCSCRoundtrip(t *testing.T) {
	c := cscFromCoords(5, 6, []int{0, 2, 4, 1}, []int{0, 0, 3, 5})
	d := DCSCFromCSC(c)
	if d.NNZ() != c.NNZ() {
		t.Fatalf("nnz %d vs %d", d.NNZ(), c.NNZ())
	}
	if len(d.JC) != 3 {
		t.Errorf("nnzcols = %d", len(d.JC))
	}
	for j := 0; j < c.Cols; j++ {
		want := c.Column(j)
		got := d.Column(j)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("col %d: %v vs %v", j, got, want)
		}
	}
}

func TestDCSCEmpty(t *testing.T) {
	d := DCSCFromCSC(cscFromCoords(3, 3, nil, nil))
	if d.NNZ() != 0 || len(d.JC) != 0 {
		t.Errorf("empty dcsc: %+v", d)
	}
	if d.Column(1) != nil {
		t.Error("column of empty matrix")
	}
}

func TestDCSCSavesMemoryWhenHypersparse(t *testing.T) {
	// 10000 columns, 20 entries: CSC pays 10001 pointer words; DCSC pays
	// ~3 words per entry.
	rr := make([]int, 20)
	cc := make([]int, 20)
	for k := range rr {
		rr[k] = k
		cc[k] = k * 487 % 10000
	}
	c := cscFromCoords(100, 10000, rr, cc)
	d := DCSCFromCSC(c)
	if d.MemWords() >= c.MemWords()/50 {
		t.Errorf("dcsc %d words vs csc %d: expected ~100x saving", d.MemWords(), c.MemWords())
	}
}

func TestDCSCNoWorseWhenDense(t *testing.T) {
	// Every column occupied: DCSC overhead is bounded by ~2x the pointer
	// array.
	var rr, cc []int
	for j := 0; j < 50; j++ {
		for i := 0; i < 4; i++ {
			rr = append(rr, i)
			cc = append(cc, j)
		}
	}
	c := cscFromCoords(4, 50, rr, cc)
	d := DCSCFromCSC(c)
	if d.MemWords() > 2*c.MemWords() {
		t.Errorf("dcsc %d words vs csc %d", d.MemWords(), c.MemWords())
	}
}

func TestQuickDCSCColumnsMatchCSC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(40)
		n := rng.Intn(60)
		rr := make([]int, n)
		cc := make([]int, n)
		for k := 0; k < n; k++ {
			rr[k] = rng.Intn(rows)
			cc[k] = rng.Intn(cols)
		}
		c := cscFromCoords(rows, cols, rr, cc)
		d := DCSCFromCSC(c)
		if d.NNZ() != c.NNZ() {
			return false
		}
		for j := 0; j < cols; j++ {
			w, g := c.Column(j), d.Column(j)
			if len(w) != len(g) {
				return false
			}
			for k := range w {
				if w[k] != g[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
