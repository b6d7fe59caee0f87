package comm

import (
	"sync/atomic"
	"testing"

	"repro/internal/tally"
)

func TestRunSpawnsAllRanks(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 16} {
		var seen int64
		stats := Run(p, nil, func(c *Comm) {
			atomic.AddInt64(&seen, 1)
			if c.Size() != p {
				t.Errorf("size = %d, want %d", c.Size(), p)
			}
			if c.Rank() < 0 || c.Rank() >= p {
				t.Errorf("rank %d out of range", c.Rank())
			}
		})
		if seen != int64(p) {
			t.Errorf("p=%d: %d ranks ran", p, seen)
		}
		if len(stats) != p {
			t.Errorf("p=%d: %d stats", p, len(stats))
		}
	}
}

func TestRunInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=0")
		}
	}()
	Run(0, nil, func(c *Comm) {})
}

// TestRunOneRankPanicReachesCaller pins that a one-rank world runs on the
// caller's goroutine: a panic after a collective unwinds into the caller's
// recover instead of crashing the process from a worker goroutine.
func TestRunOneRankPanicReachesCaller(t *testing.T) {
	type boom struct{}
	defer func() {
		if r := recover(); r != (boom{}) {
			t.Fatalf("recovered %v, want the rank's panic value", r)
		}
	}()
	Run(1, nil, func(c *Comm) {
		AllReduceSum(c, int64(1))
		panic(boom{})
	})
	t.Fatal("Run returned after its rank panicked")
}

func TestAllGathervConcat(t *testing.T) {
	p := 4
	Run(p, nil, func(c *Comm) {
		local := []int{c.Rank() * 2, c.Rank()*2 + 1}
		got := AllGathervConcat(c, local)
		if len(got) != 2*p {
			t.Fatalf("len %d, want %d", len(got), 2*p)
		}
		for i, v := range got {
			if v != i {
				t.Errorf("got[%d] = %d", i, v)
			}
		}
	})
}

// allToAllv runs AllToAllvConcat and splits the concatenation by its
// counts, so a test can index the received pieces by source rank.
func allToAllv[T any](c *Comm, send [][]T) [][]T {
	flat, counts := AllToAllvConcat(c, send, nil, nil)
	recv := make([][]T, len(counts))
	for i, n := range counts {
		recv[i], flat = flat[:n:n], flat[n:]
	}
	return recv
}

func TestAllToAllv(t *testing.T) {
	p := 4
	Run(p, nil, func(c *Comm) {
		send := make([][]int, p)
		for dst := 0; dst < p; dst++ {
			// rank r sends dst copies of r*10+dst.
			for k := 0; k < dst; k++ {
				send[dst] = append(send[dst], c.Rank()*10+dst)
			}
		}
		recv := allToAllv(c, send)
		if len(recv) != p {
			t.Fatalf("recv has %d buffers", len(recv))
		}
		for src := 0; src < p; src++ {
			want := c.Rank() // src sends c.Rank() copies to me
			if len(recv[src]) != want {
				t.Errorf("rank %d from %d: %d items, want %d", c.Rank(), src, len(recv[src]), want)
			}
			for _, v := range recv[src] {
				if v != src*10+c.Rank() {
					t.Errorf("rank %d from %d: value %d", c.Rank(), src, v)
				}
			}
		}
	})
}

func TestAllToAllvWrongSizePanics(t *testing.T) {
	Run(2, nil, func(c *Comm) {
		if c.Rank() != 0 {
			// Only rank 0 panics; keep rank 1 out of the collective
			// entirely for this error-path test.
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		AllToAllvConcat(c, make([][]int, 1), nil, nil)
	})
}

func TestAllReduce(t *testing.T) {
	p := 6
	Run(p, nil, func(c *Comm) {
		sum := AllReduce(c, c.Rank()+1, func(a, b int) int { return a + b })
		if sum != p*(p+1)/2 {
			t.Errorf("sum = %d, want %d", sum, p*(p+1)/2)
		}
		min := AllReduce(c, c.Rank(), func(a, b int) int {
			if a < b {
				return a
			}
			return b
		})
		if min != 0 {
			t.Errorf("min = %d", min)
		}
	})
}

func TestAllReduceSum(t *testing.T) {
	Run(4, nil, func(c *Comm) {
		if got := AllReduceSum(c, int64(c.Rank())); got != 6 {
			t.Errorf("sum = %d", got)
		}
	})
}

func TestAllReduceDeterministicOrder(t *testing.T) {
	// Non-commutative op: keep the first value. Result must be rank 0's.
	Run(5, nil, func(c *Comm) {
		got := AllReduce(c, c.Rank()+100, func(a, b int) int { return a })
		if got != 100 {
			t.Errorf("got %d, want rank 0's value", got)
		}
	})
}

func TestExScan(t *testing.T) {
	p := 5
	Run(p, nil, func(c *Comm) {
		prefix, total := ExScan(c, int64(c.Rank()+1))
		wantPrefix := int64(c.Rank() * (c.Rank() + 1) / 2)
		if prefix != wantPrefix {
			t.Errorf("rank %d prefix = %d, want %d", c.Rank(), prefix, wantPrefix)
		}
		if total != int64(p*(p+1)/2) {
			t.Errorf("total = %d", total)
		}
	})
}

func TestGatherv(t *testing.T) {
	p := 4
	Run(p, nil, func(c *Comm) {
		local := []int{c.Rank()}
		got := Gatherv(c, local, 1)
		if c.Rank() == 1 {
			if len(got) != p {
				t.Fatalf("root got %v", got)
			}
			for i, v := range got {
				if v != i {
					t.Errorf("root got[%d] = %d", i, v)
				}
			}
		} else if got != nil {
			t.Errorf("non-root rank %d got %v", c.Rank(), got)
		}
	})
}

func TestExchangePairs(t *testing.T) {
	// 2x2 transpose pattern: 0<->0, 1<->2, 3<->3.
	partners := []int{0, 2, 1, 3}
	Run(4, nil, func(c *Comm) {
		data := []int{c.Rank() * 11}
		got := ExchangeInto(c, partners[c.Rank()], data, nil)
		want := partners[c.Rank()] * 11
		if len(got) != 1 || got[0] != want {
			t.Errorf("rank %d got %v, want [%d]", c.Rank(), got, want)
		}
	})
}

func TestExchangeSelfIsCopy(t *testing.T) {
	Run(1, nil, func(c *Comm) {
		data := []int{5}
		got := ExchangeInto(c, 0, data, nil)
		got[0] = 9
		if data[0] != 5 {
			t.Error("ExchangeInto with self aliased the input")
		}
	})
}

func TestSplitRowsAndCols(t *testing.T) {
	// 2x3 grid: rank r -> row r/3, col r%3.
	p := 6
	Run(p, nil, func(c *Comm) {
		row := c.Rank() / 3
		col := c.Rank() % 3
		rowComm := c.Split(row, col)
		colComm := c.Split(col, row)
		if rowComm.Size() != 3 {
			t.Errorf("row comm size %d", rowComm.Size())
		}
		if colComm.Size() != 2 {
			t.Errorf("col comm size %d", colComm.Size())
		}
		if rowComm.Rank() != col {
			t.Errorf("row comm rank %d, want %d", rowComm.Rank(), col)
		}
		if colComm.Rank() != row {
			t.Errorf("col comm rank %d, want %d", colComm.Rank(), row)
		}
		// Collectives on the subcomms work and see only members.
		got := AllGathervConcat(rowComm, []int{c.Rank()})
		want := []int{row * 3, row*3 + 1, row*3 + 2}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("row gather = %v, want %v", got, want)
			}
		}
		got2 := AllGathervConcat(colComm, []int{c.Rank()})
		want2 := []int{col, col + 3}
		for i := range want2 {
			if got2[i] != want2[i] {
				t.Errorf("col gather = %v, want %v", got2, want2)
			}
		}
	})
}

func TestSplitSingleton(t *testing.T) {
	Run(1, nil, func(c *Comm) {
		sub := c.Split(0, 0)
		if sub.Size() != 1 || sub.Rank() != 0 {
			t.Errorf("singleton split: size=%d rank=%d", sub.Size(), sub.Rank())
		}
	})
}

func TestClocksSynchronizeAtCollectives(t *testing.T) {
	model := &tally.Model{AlphaNs: 1000, BetaNsPerWord: 1, CompNsPerUnit: 10, Threads: 1}
	stats := Run(4, model, func(c *Comm) {
		// Rank 2 does extra work; after a barrier all clocks must be
		// at least rank 2's pre-barrier clock.
		if c.Rank() == 2 {
			c.Stats().AddWork(1000) // 10_000 ns
		}
		c.Barrier()
		if c.Stats().ClockNs() < 10000 {
			t.Errorf("rank %d clock %f below straggler's", c.Rank(), c.Stats().ClockNs())
		}
	})
	for r, s := range stats {
		if s.ClockNs() < 10000 {
			t.Errorf("rank %d final clock %f", r, s.ClockNs())
		}
	}
}

func TestTrafficCountersCount(t *testing.T) {
	stats := Run(4, nil, func(c *Comm) {
		AllGathervConcat(c, []int64{1, 2, 3})
	})
	for r, s := range stats {
		if s.Words != 9 { // 3 words to each of 3 peers
			t.Errorf("rank %d sent %d words, want 9", r, s.Words)
		}
		if s.Msgs == 0 {
			t.Errorf("rank %d sent no messages", r)
		}
	}
}

func TestCollectivesAreDeterministic(t *testing.T) {
	run := func() float64 {
		stats := Run(9, nil, func(c *Comm) {
			x := AllGathervConcat(c, []int{c.Rank()})
			c.Stats().AddWork(int64(len(x) * (c.Rank() + 1)))
			send := make([][]int, c.Size())
			for i := range send {
				send[i] = x
			}
			AllToAllvConcat(c, send, nil, nil)
			AllReduceSum(c, 7)
			c.Barrier()
		})
		return tally.Collect(stats).ClockNs
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("virtual clocks differ between identical runs: %f vs %f", a, b)
	}
	if a == 0 {
		t.Error("virtual clock did not advance")
	}
}

func TestSubcommClockIndependence(t *testing.T) {
	// Two disjoint groups of a split must not synchronize with each other
	// through group-local collectives.
	stats := Run(4, nil, func(c *Comm) {
		sub := c.Split(c.Rank()/2, c.Rank())
		if c.Rank() >= 2 {
			c.Stats().AddWork(100000)
		}
		sub.Barrier()
	})
	// Group {0,1} should have much smaller clocks than group {2,3}.
	if stats[0].ClockNs() >= stats[2].ClockNs() {
		t.Errorf("group 0 clock %f not below group 1 clock %f", stats[0].ClockNs(), stats[2].ClockNs())
	}
}
