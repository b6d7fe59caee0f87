package comm

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/par"
)

// rankPanic is the value a test rank panics with.
type rankPanic struct{ rank int }

// runAborting runs f on a p-rank world that must abort: Run has to return
// within a timeout by re-panicking a *par.Panic whose value is want, and
// every goroutine it started has to be gone afterwards.
func runAborting(t *testing.T, p int, want rankPanic, f func(c *Comm)) {
	t.Helper()
	base := runtime.NumGoroutine()
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		Run(p, nil, f)
	}()
	var v any
	select {
	case v = <-got:
	case <-time.After(10 * time.Second):
		t.Fatalf("GOMAXPROCS=%d p=%d: Run still blocked after its rank %d panicked", runtime.GOMAXPROCS(0), p, want.rank)
	}
	pp, ok := v.(*par.Panic)
	if !ok || pp.Value != want {
		t.Fatalf("GOMAXPROCS=%d p=%d: Run re-panicked %#v, want a *par.Panic carrying %v", runtime.GOMAXPROCS(0), p, v, want)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("GOMAXPROCS=%d p=%d: %d goroutines after Run, %d before", runtime.GOMAXPROCS(0), p, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPanickingRankAbortsWorld: a rank that panics anywhere — before any
// collective, between collectives, after its peers have parked, inside a
// row sub-communicator — aborts the world instead of leaving its peers
// blocked, and Run re-panics with the rank's value.
func TestPanickingRankAbortsWorld(t *testing.T) {
	cases := []struct {
		name string
		f    func(c *Comm, bad int)
	}{
		{"before-collectives", func(c *Comm, bad int) {
			if c.Rank() == bad {
				panic(rankPanic{bad})
			}
			for i := 0; i < 4; i++ {
				AllReduceSum(c, 1)
			}
		}},
		{"between-collectives", func(c *Comm, bad int) {
			for i := 0; i < 8; i++ {
				if i == 5 && c.Rank() == bad {
					panic(rankPanic{bad})
				}
				AllGathervConcat(c, []int{c.Rank(), i})
				c.Barrier()
			}
		}},
		{"after-peers-park", func(c *Comm, bad int) {
			AllReduceSum(c, 1)
			if c.Rank() == bad {
				time.Sleep(lateSleep)
				panic(rankPanic{bad})
			}
			AllReduceSum(c, 1)
		}},
		{"row-sub-communicator", func(c *Comm, bad int) {
			q := 2
			for q*q < c.Size() {
				q++
			}
			row := c.Split(c.Rank()/q, c.Rank()%q)
			for i := 0; i < 6; i++ {
				AllReduceSum(row, 1)
				if i == 3 && c.Rank() == bad {
					panic(rankPanic{bad})
				}
				AllGathervConcat(row, []int64{int64(i)})
			}
		}},
	}
	atProcs(t, func(t *testing.T) {
		for _, p := range []int{4, 16} {
			for _, bad := range []int{0, p / 2, p - 1} {
				for _, tc := range cases {
					t.Run(fmt.Sprintf("%s/p%d/rank%d/procs%d", tc.name, p, bad, runtime.GOMAXPROCS(0)), func(t *testing.T) {
						runAborting(t, p, rankPanic{bad}, func(c *Comm) { tc.f(c, bad) })
					})
				}
			}
		}
	})
}

// TestLowestPanickingRankWins: when two ranks panic, Run re-panics with the
// lower rank's value, even when the higher rank panics first. The higher
// rank waits until the lower one has left the first collective, so its
// abort cannot unwind the lower rank inside that collective's barriers
// before the lower rank raises its own value.
func TestLowestPanickingRankWins(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, p := range []int{4, 16} {
			lo, hi := 1, p-1
			for rep := 0; rep < 5; rep++ {
				loOut := make(chan struct{})
				runAborting(t, p, rankPanic{lo}, func(c *Comm) {
					AllReduceSum(c, 1)
					switch c.Rank() {
					case hi:
						<-loOut
						panic(rankPanic{hi})
					case lo:
						close(loOut)
						time.Sleep(lateSleep)
						panic(rankPanic{lo})
					}
					AllReduceSum(c, 1)
				})
			}
		}
	})
}
