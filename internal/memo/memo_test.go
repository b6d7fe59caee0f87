package memo

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/par"
)

// byLen charges a string value its length.
func byLen(_ string, v string) int64 { return int64(len(v)) }

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// gate is a fill that blocks until released and counts its runs.
type gate struct {
	release chan struct{}
	runs    atomic.Int64
}

func newGate() *gate { return &gate{release: make(chan struct{})} }

func (g *gate) fill(v string, err error) func() (string, error) {
	return func() (string, error) {
		g.runs.Add(1)
		<-g.release
		return v, err
	}
}

// getAll runs n concurrent Gets of key through fill and returns their
// results once the fill has been released and all of them returned.
func getAll(t *testing.T, c *Cache[string], g *gate, n int, key string, fill func() (string, error)) ([]string, []error) {
	t.Helper()
	vals, errs := make([]string, n), make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, errs[i] = c.Get(context.Background(), key, fill)
		}(i)
	}
	waitFor(t, "every Get to join the fill", func() bool {
		st := c.Stats()
		return st.Misses+st.Shared == uint64(n)
	})
	close(g.release)
	wg.Wait()
	return vals, errs
}

// TestGetCoalesces: concurrent Gets of one key run the fill once, and every
// Get is counted exactly once as a Hit, Miss or Shared.
func TestGetCoalesces(t *testing.T) {
	c := New(1<<20, byLen)
	var runs atomic.Int64
	fill := func() (string, error) {
		runs.Add(1)
		time.Sleep(10 * time.Millisecond)
		return "value", nil
	}
	const n = 64
	var wg sync.WaitGroup
	outs := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.Get(context.Background(), "k", fill)
			if err != nil || v != "value" {
				t.Errorf("Get = %q, %v", v, err)
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	if r := runs.Load(); r != 1 {
		t.Errorf("fill ran %d times for one key, want 1", r)
	}
	var misses int
	for _, out := range outs {
		if out == Miss {
			misses++
		}
	}
	st := c.Stats()
	if misses != 1 || st.Misses != 1 {
		t.Errorf("%d Gets reported Miss (stats %d), want 1", misses, st.Misses)
	}
	if total := st.Hits + st.Misses + st.Shared; total != n {
		t.Errorf("hits+misses+shared = %d+%d+%d, want %d", st.Hits, st.Misses, st.Shared, n)
	}
	if st.Inflight != 0 || st.Entries != 1 || st.Bytes != int64(len("value")) {
		t.Errorf("after the fill: %+v", st)
	}
}

// TestLRUOrderAndEviction pins the eviction order (least recently used
// first, a Hit counting as a use) and the running byte total.
func TestLRUOrderAndEviction(t *testing.T) {
	c := New(30, byLen)
	get := func(key, val string) Outcome {
		t.Helper()
		_, out, err := c.Get(context.Background(), key, func() (string, error) { return val, nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	expect := func(step string, bytes int64, entries int, evictions uint64) {
		t.Helper()
		st := c.Stats()
		if st.Bytes != bytes || st.Entries != entries || st.Evictions != evictions {
			t.Errorf("%s: bytes=%d entries=%d evictions=%d, want %d/%d/%d",
				step, st.Bytes, st.Entries, st.Evictions, bytes, entries, evictions)
		}
	}
	ten, twenty := strings.Repeat("x", 10), strings.Repeat("y", 20)
	for _, k := range []string{"a", "b", "c"} {
		if out := get(k, ten); out != Miss {
			t.Fatalf("first Get of %s: outcome %d, want Miss", k, out)
		}
	}
	expect("three kept", 30, 3, 0)
	if get("a", "") != Hit { // recency now a, c, b
		t.Fatal("a not kept")
	}
	get("d", ten) // evicts b, the least recently used
	expect("d in, b out", 30, 3, 1)
	if get("c", "") != Hit || get("a", "") != Hit || get("d", "") != Hit {
		t.Fatal("a, c or d evicted in b's place")
	}
	// Recency d, a, c: a 20-byte value evicts c, then a.
	get("e", twenty)
	expect("e in, c and a out", 30, 2, 3)
	if get("d", "") != Hit || get("e", "") != Hit {
		t.Fatal("d or e not kept")
	}
	if get("b", ten) != Miss {
		t.Fatal("evicted b still kept")
	}
	// Recency b, e, d: b's 10 bytes evict d.
	expect("b back, d out", 30, 2, 4)
}

// TestNotKept: a value larger than the budget, or sized < 0, is not kept,
// and a capacity ≤ 0 keeps nothing but still coalesces.
func TestNotKept(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int64
		size     func(string, string) int64
	}{
		{"larger than the budget", 4, byLen},
		{"negative size", 1 << 20, func(string, string) int64 { return -1 }},
		{"zero capacity", 0, byLen},
		{"negative capacity", -1, byLen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.capacity, tc.size)
			g := newGate()
			vals, errs := getAll(t, c, g, 8, "k", g.fill("value", nil))
			for i := range vals {
				if errs[i] != nil || vals[i] != "value" {
					t.Fatalf("Get %d = %q, %v", i, vals[i], errs[i])
				}
			}
			if r := g.runs.Load(); r != 1 {
				t.Errorf("8 concurrent Gets ran the fill %d times, want 1", r)
			}
			if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Shared != 7 {
				t.Errorf("after the fill: %+v, want nothing kept and 7 shared", st)
			}
			if _, out, _ := c.Get(context.Background(), "k", func() (string, error) { return "again", nil }); out != Miss {
				t.Errorf("a Get after the fill: outcome %d, want Miss", out)
			}
		})
	}
}

// TestFillError: a fill's error reaches every waiter and is not kept; the
// next Get fills again.
func TestFillError(t *testing.T) {
	c := New(1<<20, byLen)
	g := newGate()
	boom := errors.New("boom")
	_, errs := getAll(t, c, g, 8, "k", g.fill("", boom))
	for i, err := range errs {
		if err != boom {
			t.Errorf("waiter %d: err = %v, want the fill's error", i, err)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Inflight != 0 {
		t.Errorf("after a failed fill: %+v", st)
	}
	v, out, err := c.Get(context.Background(), "k", func() (string, error) { return "ok", nil })
	if err != nil || v != "ok" || out != Miss {
		t.Errorf("Get after a failed fill = %q, %d, %v; want a fresh fill", v, out, err)
	}
}

// TestWaiterContextEnds: a waiter whose context ends returns ctx.Err() at
// once, while the fill runs on, completes and is kept.
func TestWaiterContextEnds(t *testing.T) {
	c := New(1<<20, byLen)
	g := newGate()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, "k", g.fill("value", nil))
		done <- err
	}()
	waitFor(t, "the fill to start", func() bool { return g.runs.Load() == 1 })
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still blocked on the fill")
	}
	if st := c.Stats(); st.Inflight != 1 {
		t.Fatalf("fill abandoned with its waiter: inflight %d, want 1", st.Inflight)
	}
	close(g.release)
	waitFor(t, "inflight to return to 0", func() bool { return c.Stats().Inflight == 0 })
	v, out, err := c.Get(context.Background(), "k", g.fill("other", nil))
	if err != nil || v != "value" || out != Hit {
		t.Errorf("Get after the orphaned fill = %q, %d, %v; want its kept value as a Hit", v, out, err)
	}
	if r := g.runs.Load(); r != 1 {
		t.Errorf("fill ran %d times, want 1", r)
	}
}

// TestPanickingFill: every waiter of a panicking fill gets a *PanicError,
// the stack is logged once, the process survives, and the next Get fills
// again.
func TestPanickingFill(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	c := New(1<<20, byLen)
	g := newGate()
	fill := func() (string, error) {
		g.runs.Add(1)
		<-g.release
		panic("engine invariant broken")
	}
	_, errs := getAll(t, c, g, 8, "k", fill)
	for i, err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("waiter %d: err = %v, want a *PanicError", i, err)
		}
		if pe.Key != "k" || pe.Value != "engine invariant broken" || len(pe.Stack) == 0 {
			t.Errorf("waiter %d: PanicError{Key: %q, Value: %v, %d stack bytes}", i, pe.Key, pe.Value, len(pe.Stack))
		}
	}
	if n := strings.Count(logged.String(), "engine invariant broken"); n != 1 {
		t.Errorf("panic logged %d times for 8 waiters, want once", n)
	}
	if st := c.Stats(); st.Inflight != 0 || st.Entries != 0 {
		t.Errorf("after a panicking fill: %+v", st)
	}
	v, out, err := c.Get(context.Background(), "k", func() (string, error) { return "ok", nil })
	if err != nil || v != "ok" || out != Miss {
		t.Errorf("Get after a panicking fill = %q, %d, %v; want a fresh fill", v, out, err)
	}
}

//go:noinline
func panickingWorker() { panic("worker invariant broken") }

// TestPanickingFillWorker: a fill whose forked worker panics yields a
// *PanicError carrying the worker's own value and stack, as a panic on the
// fill goroutine itself would, not the join's *par.Panic.
func TestPanickingFillWorker(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)

	c := New(1<<20, byLen)
	_, _, err := c.Get(context.Background(), "k", func() (string, error) {
		par.For(4, func(i int) {
			if i == 2 {
				panickingWorker()
			}
		})
		return "unreachable", nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if pe.Value != "worker invariant broken" {
		t.Errorf("PanicError.Value = %#v, want the worker's value", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "memo.panickingWorker") {
		t.Errorf("PanicError.Stack does not name the worker:\n%s", pe.Stack)
	}
}
