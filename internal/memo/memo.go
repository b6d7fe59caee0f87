// Package memo is the serving tier's one coalescing cache: a byte-budget
// LRU of computed values and a single-flight map of the computations still
// running, both under one mutex, so a lookup and a join can never race
// into a second computation of the same key.
//
// Get serves a key from the kept values (Hit), by waiting on the
// computation another caller started (Shared), or by starting the fill
// itself (Miss). The fill runs on its own goroutine: no caller's context
// can cancel or fail it, so one client hanging up never fails the others
// waiting on the same key, and a finished fill is kept for the next
// caller even when every waiter has gone. A panic in the fill, or on a
// goroutine the fill forked through package par, becomes a *PanicError for
// every waiter instead of a crashed process.
package memo

import (
	"container/list"
	"context"
	"fmt"
	"log"
	"runtime/debug"
	"sync"

	"repro/internal/par"
)

// Outcome reports how Get served a key.
type Outcome uint8

const (
	// Miss: this call started the fill.
	Miss Outcome = iota
	// Hit: the value was kept from an earlier fill.
	Hit
	// Shared: this call joined a fill another call started.
	Shared
)

// PanicError is the error every waiter of a panicking fill gets.
type PanicError struct {
	Key   string // the key being filled
	Value any    // what the fill panicked with (a *par.Panic's Value)
	Stack []byte // the panicking goroutine's stack at the panic
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("memo: computing %s panicked: %v", e.Key, e.Value)
}

// Stats is a point-in-time snapshot of a Cache.
type Stats struct {
	// Hits, Misses and Shared count Get calls by Outcome.
	Hits, Misses, Shared uint64
	// Evictions counts values dropped to keep the byte budget.
	Evictions uint64
	// Inflight is the number of fills running.
	Inflight int
	// Entries and Bytes describe the kept values against Capacity.
	Entries  int
	Bytes    int64
	Capacity int64
}

// Cache is a coalescing cache of V values keyed by string. Create one with
// New; all methods are goroutine-safe.
type Cache[V any] struct {
	size func(key string, v V) int64

	mu        sync.Mutex
	capacity  int64
	bytes     int64
	ll        list.List // of *entry[V]; front = most recently used
	items     map[string]*list.Element
	flights   map[string]*flight[V]
	hits      uint64
	misses    uint64
	shared    uint64
	evictions uint64
}

type entry[V any] struct {
	key   string
	val   V
	bytes int64
}

// flight is one running fill; its waiters block on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a Cache keeping at most capacity bytes of values, as charged
// by size. A fill's value is kept only when size returns a size ≥ 0 that
// fits the budget; a capacity ≤ 0 keeps nothing but still coalesces
// concurrent fills of one key. size runs once per successful fill, on the
// fill's goroutine.
func New[V any](capacity int64, size func(key string, v V) int64) *Cache[V] {
	return &Cache[V]{
		size:     size,
		capacity: capacity,
		items:    make(map[string]*list.Element),
		flights:  make(map[string]*flight[V]),
	}
}

// Get returns the value for key: the kept one (Hit), the result of the
// fill already running for key (Shared), or the result of fill, started
// now on its own goroutine (Miss). A fill's error reaches every waiter and
// is never kept. When ctx ends first, Get returns ctx.Err() at once; the
// fill carries on and its value is kept as usual.
func (c *Cache[V]) Get(ctx context.Context, key string, fill func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*entry[V]).val
		c.mu.Unlock()
		return v, Hit, nil
	}
	f, out := c.flights[key], Shared
	if f == nil {
		f, out = &flight[V]{done: make(chan struct{})}, Miss
		c.flights[key] = f
		c.misses++
		go c.run(key, f, fill)
	} else {
		c.shared++
	}
	c.mu.Unlock()

	select {
	case <-f.done:
		return f.val, out, f.err
	case <-ctx.Done():
		var zero V
		return zero, out, ctx.Err()
	}
}

// run executes one fill, keeps its value if it may, and releases the
// waiters. The value is published and the flight removed in one critical
// section, so every later Get finds one or the other.
func (c *Cache[V]) run(key string, f *flight[V], fill func() (V, error)) {
	size := int64(-1)
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Key: key, Value: r, Stack: debug.Stack()}
			if p, ok := r.(*par.Panic); ok {
				pe.Value, pe.Stack = p.Value, p.Stack // the faulting goroutine's, not the join's
			}
			log.Printf("%v\n%s", pe, pe.Stack)
			f.err = pe
		}
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.keep(key, f.val, size)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fill()
	if f.err == nil {
		size = c.size(key, f.val)
	}
}

// keep inserts a value, then evicts from the cold end until the budget
// holds again. A value larger than the whole budget is not kept at all:
// evicting everything for one value that cannot stay would only thrash.
// key is absent here: a flight exists only while its key is not kept, and
// only the flight's own completion keeps it.
func (c *Cache[V]) keep(key string, v V, size int64) {
	if size < 0 || size > c.capacity || c.capacity <= 0 {
		return
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: v, bytes: size})
	c.bytes += size
	for c.bytes > c.capacity {
		oldest := c.ll.Back()
		e := oldest.Value.(*entry[V])
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.bytes -= e.bytes
		c.evictions++
	}
}

// Stats snapshots the counters and occupancy.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Shared:    c.shared,
		Evictions: c.evictions,
		Inflight:  len(c.flights),
		Entries:   len(c.items),
		Bytes:     c.bytes,
		Capacity:  c.capacity,
	}
}
