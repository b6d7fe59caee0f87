package comm

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// lateSleep is longer than a waiter's whole spin budget, so a rank that
// sleeps this long before arriving forces every other rank onto the park
// path of the barrier.
const lateSleep = 2 * time.Millisecond

// atProcs runs f with GOMAXPROCS set to each of 1 and 2 (ranks far
// outnumbering Ps, and the two-core shape the benchmarks run on), restoring
// the caller's setting afterwards.
func atProcs(t *testing.T, f func(t *testing.T)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		f(t)
	}
}

// TestBarrierNobodyPassesEarly checks the barrier's one promise on both its
// spin and park paths: no rank leaves round r before every rank has arrived
// at it. One rank per round arrives late (every other round, past the spin
// budget).
func TestBarrierNobodyPassesEarly(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const n, rounds = 8, 60
		b := newWorld().newBarrier(n)
		var arrived atomic.Int64
		done := make(chan struct{})
		for r := 0; r < n; r++ {
			go func(rank int) {
				defer func() { done <- struct{}{} }()
				for round := 0; round < rounds; round++ {
					if round%n == rank && round%2 == 0 {
						time.Sleep(lateSleep)
					}
					arrived.Add(1)
					b.wait()
					if got, want := arrived.Load(), int64(n*(round+1)); got < want {
						t.Errorf("GOMAXPROCS=%d rank %d left round %d after %d arrivals, want %d",
							runtime.GOMAXPROCS(0), rank, round, got, want)
					}
					b.wait() // keep the next round's arrivals out of this check
				}
			}(r)
		}
		for r := 0; r < n; r++ {
			<-done
		}
	})
}

// TestBarrierParkPathDeposits drives world, row and column collectives
// interleaved on a 4x4 grid while one rank per round sleeps past the spin
// budget before it deposits, and checks that every rank sees every peer's
// deposit of that round — the happens-before edges of the exchange on the
// park path as well as the spin path.
func TestBarrierParkPathDeposits(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const q, rounds = 4, 24
		Run(q*q, nil, func(c *Comm) {
			row := c.Split(c.Rank()/q, c.Rank()%q)
			col := c.Split(c.Rank()%q, c.Rank()/q)
			tag := func(rank, round int) int64 { return int64(rank*1000 + round) }
			for round := 0; round < rounds; round++ {
				if round%(q*q) == c.Rank() {
					time.Sleep(lateSleep)
				}
				world := AllGather(c, tag(c.Rank(), round))
				for i, v := range world {
					if v != tag(i, round) {
						t.Errorf("round %d world rank %d: slot %d = %d", round, c.Rank(), i, v)
					}
				}
				if round%q == col.Rank() {
					time.Sleep(lateSleep)
				}
				inRow := AllGathervConcat(row, []int64{tag(row.Rank(), round), tag(row.Rank(), round)})
				for i, v := range inRow {
					if v != tag(i/2, round) {
						t.Errorf("round %d row rank %d: entry %d = %d", round, row.Rank(), i, v)
					}
				}
				send := make([][]int64, q)
				for d := range send {
					send[d] = []int64{tag(col.Rank(), round)*q + int64(d)}
				}
				for i, got := range allToAllv(col, send) {
					if len(got) != 1 || got[0] != tag(i, round)*q+int64(col.Rank()) {
						t.Errorf("round %d col rank %d: from %d got %v", round, col.Rank(), i, got)
					}
				}
			}
		})
	})
}
