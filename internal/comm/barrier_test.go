package comm

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// lateSleep is longer than an idle worker's whole spin budget, so a rank
// that sleeps this long before arriving forces every worker without a
// runnable rank onto the park path.
const lateSleep = 2 * time.Millisecond

// atProcs runs f with GOMAXPROCS set to each of 1, 2 and 3 — one worker
// holding every rank, the two-core shape the benchmarks run on, and an
// uneven split of ranks over workers — restoring the caller's setting
// afterwards.
func atProcs(t *testing.T, f func(t *testing.T)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		f(t)
	}
}

// TestBarrierNobodyPassesEarly checks the barrier's one promise on every
// way a rank waits — yielding to a runnable rank of its worker, or behind
// a worker that spins and then parks — no rank leaves round r before every
// rank has arrived at it. One rank per round arrives late (every other
// round, past the spin budget).
func TestBarrierNobodyPassesEarly(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const n, rounds = 8, 60
		var arrived atomic.Int64
		Run(n, nil, func(c *Comm) {
			rank := c.Rank()
			for round := 0; round < rounds; round++ {
				if round%n == rank && round%2 == 0 {
					time.Sleep(lateSleep)
				}
				arrived.Add(1)
				c.bar.wait(c.co)
				if got, want := arrived.Load(), int64(n*(round+1)); got < want {
					t.Errorf("GOMAXPROCS=%d rank %d left round %d after %d arrivals, want %d",
						runtime.GOMAXPROCS(0), rank, round, got, want)
				}
				c.bar.wait(c.co) // keep the next round's arrivals out of this check
			}
		})
	})
}

// TestBarrierParkPathDeposits drives world, row and column collectives
// interleaved on a 4x4 grid while one rank per round sleeps past the spin
// budget before it deposits, so the workers without it park, and checks
// that every rank sees every peer's deposit of that round — the
// happens-before edges of the exchange through a rank's yield and through
// a parked worker's wake-up alike.
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

// TestBarrierWaitsAllocateNothing: a Run's allocations (its coroutines,
// slots and stats) do not grow with the number of barriers its ranks wait
// at, whether a wait yields to a rank of the same worker or idles. One
// allocation per barrier would add 2,000; the slack of half that absorbs
// what the runtime itself allocates when workers park (up to about 180
// seen under the race detector on a loaded 2-vCPU host, none at one P).
func TestBarrierWaitsAllocateNothing(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		mallocs := func(rounds int) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			Run(4, nil, func(c *Comm) {
				for i := 0; i < rounds; i++ {
					c.Barrier()
				}
			})
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		mallocs(1) // warm up
		// 2,000 barriers are 16,000 waits over the four ranks.
		const rounds = 2000
		base, many := mallocs(0), mallocs(rounds)
		if many > base+rounds/2 {
			t.Errorf("GOMAXPROCS=%d: a Run of %d barriers made %d allocations, one of none %d",
				runtime.GOMAXPROCS(0), rounds, many, base)
		}
	})
}
