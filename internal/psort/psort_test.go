package psort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKeyedSmallAndEdge(t *testing.T) {
	Keyed([]int{}, func(v int) uint64 { return uint64(v) }, 4)
	one := []int{7}
	Keyed(one, func(v int) uint64 { return uint64(v) }, 4)
	if one[0] != 7 {
		t.Error("singleton mangled")
	}
	data := []int{5, 2, 9, 1, 5, 6}
	Keyed(data, func(v int) uint64 { return uint64(v) }, 4)
	if !sort.IntsAreSorted(data) {
		t.Errorf("not sorted: %v", data)
	}
}

// keyedCase produces inputs that exercise each internal path: insertion
// (tiny), counting (compact span), radix (wide span), and the parallel
// scatter (large n).
func keyedCases() map[string][]uint64 {
	rng := rand.New(rand.NewSource(11))
	cases := map[string][]uint64{}
	tiny := make([]uint64, 20)
	for i := range tiny {
		tiny[i] = uint64(rng.Intn(50))
	}
	cases["tiny-insertion"] = tiny
	compact := make([]uint64, 10_000)
	for i := range compact {
		compact[i] = 1_000_000 + uint64(rng.Intn(200))
	}
	cases["compact-counting"] = compact
	wide := make([]uint64, 10_000)
	for i := range wide {
		wide[i] = rng.Uint64()
	}
	cases["wide-radix"] = wide
	big := make([]uint64, 300_000)
	for i := range big {
		big[i] = uint64(rng.Intn(1 << 30))
	}
	cases["large-parallel"] = big
	uniform := make([]uint64, 5000)
	for i := range uniform {
		uniform[i] = 42
	}
	cases["uniform"] = uniform
	return cases
}

func TestKeyedMatchesSortAcrossPaths(t *testing.T) {
	for name, base := range keyedCases() {
		for _, threads := range []int{1, 4} {
			d := append([]uint64(nil), base...)
			Keyed(d, func(v uint64) uint64 { return v }, threads)
			ref := append([]uint64(nil), base...)
			sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			for i := range ref {
				if d[i] != ref[i] {
					t.Fatalf("%s threads=%d: mismatch at %d: %d != %d", name, threads, i, d[i], ref[i])
				}
			}
		}
	}
}

func TestKeyedStable(t *testing.T) {
	type rec struct{ key, seq int }
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{30, 5000, 100_000} {
		base := make([]rec, n)
		for i := range base {
			base[i] = rec{key: rng.Intn(97), seq: i}
		}
		for _, threads := range []int{1, 4} {
			d := append([]rec(nil), base...)
			KeyedWS(nil, d, func(r rec) uint64 { return uint64(r.key) }, threads)
			for i := 1; i < n; i++ {
				if d[i-1].key > d[i].key {
					t.Fatalf("n=%d: not sorted at %d", n, i)
				}
				if d[i-1].key == d[i].key && d[i-1].seq > d[i].seq {
					t.Fatalf("n=%d threads=%d: stability violated at %d", n, threads, i)
				}
			}
		}
	}
}

func TestKeyedFullRangeKeys(t *testing.T) {
	// Keys spanning the whole uint64 range (span computation overflows).
	d := []uint64{^uint64(0), 0, 1, ^uint64(0) - 1, 1 << 63}
	d = append(d, make([]uint64, 100)...)
	Keyed(d, func(v uint64) uint64 { return v }, 2)
	for i := 1; i < len(d); i++ {
		if d[i-1] > d[i] {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestLexMatchesComparator(t *testing.T) {
	type tup struct{ a, b, c int }
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{10, 1000, 60_000} {
		base := make([]tup, n)
		for i := range base {
			base[i] = tup{a: rng.Intn(40), b: rng.Intn(200), c: i}
		}
		ref := append([]tup(nil), base...)
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].a != ref[j].a {
				return ref[i].a < ref[j].a
			}
			if ref[i].b != ref[j].b {
				return ref[i].b < ref[j].b
			}
			return ref[i].c < ref[j].c
		})
		var ws Scratch[tup]
		for _, threads := range []int{1, 4} {
			d := append([]tup(nil), base...)
			LexWS(&ws, d, threads,
				func(t tup) uint64 { return uint64(t.a) },
				func(t tup) uint64 { return uint64(t.b) },
				func(t tup) uint64 { return uint64(t.c) })
			for i := range ref {
				if d[i] != ref[i] {
					t.Fatalf("n=%d threads=%d: mismatch at %d", n, threads, i)
				}
			}
		}
	}
}

func TestKeyedDeterministicAcrossThreads(t *testing.T) {
	type rec struct{ key, id int }
	rng := rand.New(rand.NewSource(14))
	n := 150_000
	base := make([]rec, n)
	for i := range base {
		base[i] = rec{key: rng.Intn(1 << 20), id: i}
	}
	first := append([]rec(nil), base...)
	Keyed(first, func(r rec) uint64 { return uint64(r.key) }, 1)
	for _, threads := range []int{2, 5, 8} {
		d := append([]rec(nil), base...)
		Keyed(d, func(r rec) uint64 { return uint64(r.key) }, threads)
		for i := range first {
			if d[i] != first[i] {
				t.Fatalf("threads=%d: order differs at %d", threads, i)
			}
		}
	}
}

func TestQuickKeyedSortsAnything(t *testing.T) {
	f := func(data []uint32, threads uint8) bool {
		th := int(threads%8) + 1
		d := append([]uint32(nil), data...)
		Keyed(d, func(v uint32) uint64 { return uint64(v) }, th)
		for i := 1; i < len(d); i++ {
			if d[i-1] > d[i] {
				return false
			}
		}
		return len(d) == len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestScratchReuseProducesSameResult(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var ws Scratch[int]
	for round := 0; round < 5; round++ {
		n := 1000 + rng.Intn(60_000)
		d := make([]int, n)
		for i := range d {
			d[i] = rng.Intn(1 << (8 * (round%3 + 1)))
		}
		ref := append([]int(nil), d...)
		sort.Ints(ref)
		KeyedWS(&ws, d, func(v int) uint64 { return uint64(v) }, 3)
		for i := range ref {
			if d[i] != ref[i] {
				t.Fatalf("round %d: mismatch at %d", round, i)
			}
		}
	}
}

// TestKeyedRadixSingleChunkAllocFree pins that a one-thread radix sort on a
// warm Scratch allocates nothing: the single-chunk passes run on the
// calling goroutine, without spawning workers or a WaitGroup. n = 200 with
// a 7000-wide key span takes the two-pass radix path, not the counting
// sort.
func TestKeyedRadixSingleChunkAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := make([]int, 200)
	for i := range base {
		base[i] = rng.Intn(7000)
	}
	base[0], base[1] = 0, 6999
	d := make([]int, len(base))
	var ws Scratch[int]
	key := func(v int) uint64 { return uint64(v) }
	allocs := testing.AllocsPerRun(20, func() {
		copy(d, base)
		KeyedWS(&ws, d, key, 1)
	})
	if allocs != 0 {
		t.Errorf("KeyedWS on a warm Scratch: %v allocs/run, want 0", allocs)
	}
	if !sort.IntsAreSorted(d) {
		t.Error("KeyedWS left the radix-path input unsorted")
	}
}

func BenchmarkKeyed(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	n := 500_000
	base := make([]int64, n)
	for i := range base {
		base[i] = rng.Int63n(1 << 24)
	}
	var ws Scratch[int64]
	for _, threads := range []int{1, 2} {
		name := map[int]string{1: "t1", 2: "t2"}[threads]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := append([]int64(nil), base...)
				b.StartTimer()
				KeyedWS(&ws, d, func(v int64) uint64 { return uint64(v) }, threads)
			}
		})
	}
}

func TestInsertCapped(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	var list []int
	for _, v := range []int{5, 2, 9, 2, 7, 1} {
		list = InsertCapped(list, v, 3, less)
	}
	want := []int{1, 2, 2}
	if len(list) != 3 || list[0] != want[0] || list[1] != want[1] || list[2] != want[2] {
		t.Fatalf("shortlist = %v, want %v", list, want)
	}
	// Worse-than-worst insert on a full list is a no-op.
	if got := InsertCapped(list, 99, 3, less); len(got) != 3 || got[2] != 2 {
		t.Fatalf("no-op insert changed list: %v", got)
	}
	// Under-capacity lists grow in order.
	short := InsertCapped(InsertCapped(nil, 4, 8, less), 3, 8, less)
	if len(short) != 2 || short[0] != 3 || short[1] != 4 {
		t.Fatalf("growing shortlist = %v", short)
	}
}
