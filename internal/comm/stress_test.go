package comm

import (
	"math/rand"
	"testing"

	"repro/internal/tally"
)

// TestStressInterleavedSubcommunicators drives the exact communication
// structure the RCM algorithm uses — world, row and column collectives
// interleaved over many rounds on a grid of sub-communicators — and checks
// data integrity plus clock determinism under scheduler noise.
func TestStressInterleavedSubcommunicators(t *testing.T) {
	const p = 16 // 4x4 grid
	const rounds = 40
	run := func() ([]int64, float64) {
		sums := make([]int64, p)
		stats := Run(p, nil, func(c *Comm) {
			q := 4
			row := c.Split(c.Rank()/q, c.Rank()%q)
			col := c.Split(c.Rank()%q, c.Rank()/q)
			rng := rand.New(rand.NewSource(int64(c.Rank())))
			var acc int64
			for r := 0; r < rounds; r++ {
				// Row gather of per-rank values.
				vals := AllGathervConcat(row, []int64{int64(c.Rank()*1000 + r)})
				for _, v := range vals {
					acc += v
				}
				// Column all-to-all of variable-size buffers.
				send := make([][]int64, q)
				for d := 0; d < q; d++ {
					for k := 0; k <= (c.Rank()+d+r)%3; k++ {
						send[d] = append(send[d], int64(d+r))
					}
				}
				recv := allToAllv(col, send)
				for _, buf := range recv {
					for _, v := range buf {
						acc += v
					}
				}
				// World reduction every few rounds.
				if r%5 == 0 {
					acc += AllReduceSum(c, int64(r))
				}
				// Simulated local work (varies by rank, stressing the
				// clock sync).
				c.Stats().AddWork(int64(rng.Intn(50)))
				sums[c.Rank()] = acc
			}
		})
		return sums, tally.Collect(stats).ClockNs
	}
	s1, c1 := run()
	s2, c2 := run()
	for r := range s1 {
		if s1[r] != s2[r] {
			t.Fatalf("rank %d data differs across runs: %d vs %d", r, s1[r], s2[r])
		}
	}
	if c1 != c2 {
		t.Errorf("virtual clocks differ: %f vs %f", c1, c2)
	}
}

// TestStressManyRanksBarrierStorm exercises the barrier under heavy
// contention: 256 ranks, many rounds.
func TestStressManyRanksBarrierStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const p = 256
	stats := Run(p, nil, func(c *Comm) {
		for r := 0; r < 30; r++ {
			c.Barrier()
		}
	})
	for _, s := range stats {
		if s.Msgs != 30 {
			t.Fatalf("barrier accounting: %d msgs", s.Msgs)
		}
	}
}

// TestStressSplitStorm creates many sub-communicators in sequence to check
// the split machinery does not leak or deadlock.
func TestStressSplitStorm(t *testing.T) {
	Run(12, nil, func(c *Comm) {
		for r := 0; r < 10; r++ {
			sub := c.Split(c.Rank()%(r+1), c.Rank())
			got := AllReduceSum(sub, 1)
			if got != int64(sub.Size()) {
				t.Errorf("round %d: size %d counted %d", r, sub.Size(), got)
			}
		}
	})
}
