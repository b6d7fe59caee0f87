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
	if !ok {
		t.Fatalf("GOMAXPROCS=%d p=%d: Run re-panicked %#v, want a *par.Panic carrying %v", runtime.GOMAXPROCS(0), p, v, want)
	}
	if pp.Value != want {
		t.Fatalf("GOMAXPROCS=%d p=%d: Run re-panicked a *par.Panic carrying %v, want %v\n%s", runtime.GOMAXPROCS(0), p, pp.Value, want, pp.Stack)
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
// lower rank's value, even when the higher rank panics first. Both leave
// the first collective, whose round completed before either panic; the
// higher rank panics at once, and the lower one after local work past the
// spin budget, with no collective in between, so the abort never finds it
// waiting.
func TestLowestPanickingRankWins(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, p := range []int{4, 16} {
			lo, hi := 1, p-1
			for rep := 0; rep < 5; rep++ {
				runAborting(t, p, rankPanic{lo}, func(c *Comm) {
					AllReduceSum(c, 1)
					switch c.Rank() {
					case hi:
						panic(rankPanic{hi})
					case lo:
						time.Sleep(lateSleep)
						panic(rankPanic{lo})
					}
					AllReduceSum(c, 1)
				})
			}
		}
	})
}

// TestAbortWakesParkedWorker: at p = 9 on two workers, which hold ranks
// 0–3 and 4–8, a rank that panics once the other worker has parked still
// aborts the ranks that worker holds, and Run leaves no goroutine behind.
func TestAbortWakesParkedWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const p = 9
	for _, bad := range []int{0, 3, 4, 8} {
		t.Run(fmt.Sprintf("rank%d", bad), func(t *testing.T) {
			runAborting(t, p, rankPanic{bad}, func(c *Comm) {
				AllReduceSum(c, 1)
				if c.Rank() == bad {
					for deadline := time.Now().Add(5 * time.Second); c.bar.w.parked.Load() == 0; time.Sleep(lateSleep) {
						if time.Now().After(deadline) {
							t.Errorf("rank %d: the other worker never parked", bad)
							break
						}
					}
					panic(rankPanic{bad})
				}
				AllReduceSum(c, 1)
			})
		})
	}
}
