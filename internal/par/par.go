// Package par is the fork-join helper every engine goroutine is started
// through. Each goroutine recovers into its own slot, and the join
// re-panics on the caller's goroutine with a *Panic: the one of the lowest
// index (block or rank for For and Blocks, item for Queue), so the rethrown
// value does not depend on the schedule. A *Panic from a nested join
// passes through unwrapped. n == 1 runs on the caller's goroutine, where a
// panic is the raw value.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic is a panic caught on a goroutine par started, rethrown by the join.
type Panic struct {
	Value any    // what the goroutine panicked with
	Stack []byte // its stack at the panic
}

// Error renders the value with the stack, which an uncaught rethrow would
// otherwise lose.
func (p *Panic) Error() string { return fmt.Sprintf("%v\n\n%s", p.Value, p.Stack) }

// For runs fn(i) for every i in [0, n), each on its own goroutine, and
// returns when all have.
func For(n int, fn func(i int)) {
	if n == 1 {
		fn(0)
		return
	}
	caught := make([]*Panic, max(n, 0))
	var wg sync.WaitGroup
	wg.Add(len(caught))
	for i := range caught {
		go func() {
			defer wg.Done()
			defer catch(&caught[i])
			fn(i)
		}()
	}
	wg.Wait()
	Rethrow(caught)
}

// Blocks runs fn(k, bounds[k], bounds[k+1]) for every block of a boundary
// slice (spmat.Blocks, spmat.WeightedBlocks) as For does.
func Blocks(bounds []int, fn func(k, lo, hi int)) {
	For(len(bounds)-1, func(k int) { fn(k, bounds[k], bounds[k+1]) })
}

// Queue runs fn(w, i) for every item i in [0, n) on min(workers, n)
// workers as For does, w being the worker's index; each worker claims the
// next unclaimed item until none is left. A worker catches each item's
// panic and claims on, so every item runs, and the join rethrows the
// lowest item's *Panic, even from one worker.
func Queue(workers, n int, fn func(w, i int)) {
	caught := make([]*Panic, max(n, 0))
	var next atomic.Int64
	For(max(min(workers, n), 1), func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			func() {
				defer catch(&caught[i])
				fn(w, i)
			}()
		}
	})
	Rethrow(caught)
}

// catch is deferred around every goroutine and queue item: it stores a
// recovered panic in slot as Wrap makes it.
func catch(slot **Panic) {
	if v := recover(); v != nil {
		*slot = Wrap(v)
	}
}

// Wrap makes a recovered panic value a *Panic carrying the current stack,
// which a deferred recover still shows down to the panic; a *Panic (a
// nested join's) passes through unwrapped. comm's ranks, which recover on
// their own coroutines, catch through it too.
func Wrap(v any) *Panic {
	if p, ok := v.(*Panic); ok {
		return p
	}
	return &Panic{Value: v, Stack: debug.Stack()}
}

// Rethrow panics with the first non-nil entry of caught, the lowest
// index's panic, and returns when there is none.
func Rethrow(caught []*Panic) {
	for _, p := range caught {
		if p != nil {
			panic(p)
		}
	}
}
