package comm

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// Microbenchmarks of the collective primitives: wall time of the simulation
// layer itself (barriers, copies, boxing), which bounds how large a virtual
// machine the experiments can afford to simulate.

func benchSizes() []int { return []int{4, 16, 64} }

func BenchmarkBarrier(b *testing.B) {
	for _, p := range benchSizes() {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			Run(p, nil, func(c *Comm) {
				for i := 0; i < b.N; i++ {
					c.Barrier()
				}
			})
		})
	}
}

// skewSink keeps the compiler from eliding skewWork.
var skewSink atomic.Uint64

// skewWork burns CPU proportional to n (a linear congruential chain).
func skewWork(n int) uint64 {
	x := uint64(n)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// BenchmarkCollectiveSkew runs the shape of a thin BFS level: uneven
// per-rank local work, then a short chain of collectives (a gather and a
// reduction). Unlike BenchmarkBarrier, ranks arrive at different times, so
// waiters really wait and the host's cores can go idle between levels —
// the cost a barrier's waiting strategy decides.
func BenchmarkCollectiveSkew(b *testing.B) {
	for _, p := range benchSizes() {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			Run(p, nil, func(c *Comm) {
				payload := make([]int64, 8)
				var buf []int64
				var acc uint64
				for i := 0; i < b.N; i++ {
					acc += skewWork(1000 * (1 + (c.Rank()+i)%4))
					buf = AllGathervConcatInto(c, payload, buf)
					AllReduceSum(c, int64(len(buf)))
				}
				skewSink.Add(acc)
			})
		})
	}
}

// BenchmarkAllGathervConcatInto measures the steady-state (scratch-reusing)
// gather path of the SpMSpV pipeline; allocs/op should stay at zero.
func BenchmarkAllGathervConcatInto(b *testing.B) {
	for _, p := range benchSizes() {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			payload := make([]int64, 64)
			Run(p, nil, func(c *Comm) {
				var buf []int64
				for i := 0; i < b.N; i++ {
					buf = AllGathervConcatInto(c, payload, buf)
				}
			})
		})
	}
}

// BenchmarkAllToAllvConcat measures the steady-state personalized exchange
// with scratch reuse; allocs/op should stay at zero.
func BenchmarkAllToAllvConcat(b *testing.B) {
	for _, p := range benchSizes() {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			Run(p, nil, func(c *Comm) {
				send := make([][]int64, c.Size())
				for d := range send {
					send[d] = make([]int64, 16)
				}
				var buf []int64
				var counts []int
				for i := 0; i < b.N; i++ {
					buf, counts = AllToAllvConcat(c, send, buf, counts)
				}
			})
		})
	}
}

func BenchmarkAllReduce(b *testing.B) {
	for _, p := range benchSizes() {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			Run(p, nil, func(c *Comm) {
				for i := 0; i < b.N; i++ {
					AllReduceSum(c, int64(i))
				}
			})
		})
	}
}

func BenchmarkSplit(b *testing.B) {
	Run(16, nil, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			c.Split(c.Rank()%4, c.Rank())
		}
	})
}
