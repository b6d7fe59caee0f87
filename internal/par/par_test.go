package par

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

type boom struct{ at int }

// recoverPanic runs f and returns what a recover on the calling goroutine
// sees (nil when f returns normally).
func recoverPanic(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// mustPanic is recoverPanic for a join that must rethrow a *Panic.
func mustPanic(t *testing.T, f func()) *Panic {
	t.Helper()
	v := recoverPanic(f)
	p, ok := v.(*Panic)
	if !ok {
		t.Fatalf("recovered %#v, want a *Panic", v)
	}
	return p
}

// goid returns the current goroutine's id from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64} {
		hits := make([]atomic.Int32, n)
		For(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, h)
			}
		}
	}
}

func TestBlocksPassesBounds(t *testing.T) {
	bounds := []int{0, 3, 3, 10, 17}
	got := make([][2]int, len(bounds)-1)
	Blocks(bounds, func(k, lo, hi int) { got[k] = [2]int{lo, hi} })
	for k := range got {
		if got[k] != [2]int{bounds[k], bounds[k+1]} {
			t.Errorf("block %d got [%d, %d)", k, got[k][0], got[k][1])
		}
	}
}

// TestLowestIndexWins: when two indices panic, the join rethrows the lower
// one's value, even though the higher one panics first.
func TestLowestIndexWins(t *testing.T) {
	for rep := 0; rep < 200; rep++ {
		joins := map[string]func(fn func(i int)){
			"For":    func(fn func(i int)) { For(8, fn) },
			"Blocks": func(fn func(i int)) { Blocks([]int{0, 1, 2, 3, 4, 5, 6, 7, 8}, func(k, _, _ int) { fn(k) }) },
		}
		for name, join := range joins {
			first := make(chan struct{})
			p := mustPanic(t, func() {
				join(func(i int) {
					switch i {
					case 6:
						defer close(first)
						panic(boom{6})
					case 3:
						<-first
						panic(boom{3})
					}
				})
			})
			if p.Value != (boom{3}) {
				t.Fatalf("%s rep %d: rethrew %v, want the lowest index's", name, rep, p.Value)
			}
		}
	}
}

// TestQueueRunsEveryItem: a panicking item does not stop its worker, so
// every item runs, and the lowest panicking item is rethrown whatever the
// schedule.
func TestQueueRunsEveryItem(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 50; rep++ {
			var ran atomic.Int32
			var maxW atomic.Int32
			p := mustPanic(t, func() {
				Queue(workers, n, func(w, i int) {
					ran.Add(1)
					if int32(w) > maxW.Load() {
						maxW.Store(int32(w))
					}
					if i%17 == 11 {
						panic(boom{i})
					}
				})
			})
			if got := ran.Load(); got != n {
				t.Fatalf("workers=%d: %d of %d items ran", workers, got, n)
			}
			if w := maxW.Load(); int(w) >= workers {
				t.Fatalf("workers=%d: saw worker index %d", workers, w)
			}
			if p.Value != (boom{11}) {
				t.Fatalf("workers=%d rep %d: rethrew %v, want item 11's", workers, rep, p.Value)
			}
		}
	}
}

func TestQueueWithoutPanics(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		hits := make([]atomic.Int32, 10)
		Queue(workers, len(hits), func(_, i int) { hits[i].Add(1) })
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestNestedPanicNotRewrapped: a *Panic rethrown by an inner join reaches
// the outer caller as is, value and stack.
func TestNestedPanicNotRewrapped(t *testing.T) {
	var inner *Panic
	p := mustPanic(t, func() {
		For(3, func(i int) {
			if i != 1 {
				return
			}
			defer func() {
				inner, _ = recover().(*Panic)
				panic(inner)
			}()
			Queue(2, 4, func(_, j int) {
				if j == 2 {
					panic(boom{j})
				}
			})
		})
	})
	if p != inner || p.Value != (boom{2}) {
		t.Fatalf("outer join rethrew %#v (value %v), want the inner *Panic unchanged", p, p.Value)
	}
}

// TestSingleIndexRunsOnCaller: n == 1 runs on the caller's goroutine and a
// panic there is the raw value; n == 0 runs nothing.
func TestSingleIndexRunsOnCaller(t *testing.T) {
	caller := goid()
	v := recoverPanic(func() {
		For(1, func(int) {
			if id := goid(); id != caller {
				t.Errorf("For(1) ran on goroutine %s, caller is %s", id, caller)
			}
			panic(boom{0})
		})
	})
	if v != (boom{0}) {
		t.Fatalf("For(1): recovered %#v, want the raw value", v)
	}
	if v := recoverPanic(func() { Blocks([]int{0, 5}, func(int, int, int) { panic(boom{1}) }) }); v != (boom{1}) {
		t.Fatalf("Blocks with one block: recovered %#v, want the raw value", v)
	}
	For(0, func(int) { t.Fatal("For(0) ran fn") })
	Blocks([]int{0}, func(int, int, int) { t.Fatal("Blocks with no block ran fn") })
	Queue(4, 0, func(int, int) { t.Fatal("Queue with no items ran fn") })
}

//go:noinline
func panickingWorker() { panic(boom{-1}) }

func TestStackNamesWorkerFrame(t *testing.T) {
	p := mustPanic(t, func() {
		For(4, func(i int) {
			if i == 2 {
				panickingWorker()
			}
		})
	})
	if !strings.Contains(string(p.Stack), "par.panickingWorker") {
		t.Fatalf("stack does not name the worker's frame:\n%s", p.Stack)
	}
	if !strings.Contains(p.Error(), "par.panickingWorker") {
		t.Fatalf("Error() does not carry the worker's stack:\n%s", p.Error())
	}
}
