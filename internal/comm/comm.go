// Package comm is the distributed-memory substrate of the reproduction: a
// bulk-synchronous message-passing runtime in pure Go that plays the role
// MPI plays in the paper.
//
// Ranks are goroutines started by par.For (a one-rank world runs on the
// caller's goroutine). Collectives move data by copying it through a shared
// exchange area guarded by generation barriers, so the data movement is real
// (every word crosses the exchange exactly once per collective, like a
// shared-memory MPI transport) and can be counted exactly. Every collective
// also advances the participants' BSP virtual clocks (see package tally):
// clocks synchronize to the maximum over the group, then the modelled α-β
// cost of the operation is added. This reproduces the T = F + αS + βW
// accounting the paper uses in §IV-B.
//
// The exchange area is typed and reflection-free. A deposit publishes a
// type-erased pointer to the rank's payload (the slice's backing array, or a
// single value) plus its length; the generic collectives reconstruct the
// peers' payloads with unsafe.Slice at their static element type, so no
// payload is ever boxed into an interface and no sizing goes through
// reflect. The slot array is allocated once per communicator and reused by
// every collective — the pooled exchange area. The pointer lives in the slot
// only between the two barriers of a collective, and the barriers' atomic
// arrival counter and generation establish the happens-before edges that
// make the cross-goroutine reads safe (the race detector agrees; see the
// -race CI jobs, one of which runs at GOMAXPROCS=1).
//
// Barrier waiters yield before they park (see barrier). Wall time is not
// part of the model: how a rank waits changes how fast the simulation
// runs, never a count, a clock or a result.
//
// A panicking rank aborts its world, as MPI's default error handler aborts
// the job: its peers unwind at their next barrier wait, and Run re-panics
// on its caller's goroutine with the lowest panicking rank's value.
//
// Collectives that return data come in two flavours: the plain form returns
// fresh slices, and the Into form appends into a caller-supplied scratch
// buffer so steady-state callers (SpMSpV, SORTPERM, halo exchanges) can run
// allocation-free. Either way the data is copied out of the exchange before
// the releasing barrier, so senders may immediately reuse their buffers.
//
// Semantics follow MPI: all members of a communicator must call the same
// collectives in the same order. Sub-communicators are created with Split,
// which is how the 2D grid's row and column communicators are built.
package comm

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/par"
	"repro/internal/tally"
)

// slotEntry is one rank's deposit in the shared exchange area: a type-erased
// pointer to the payload (reconstructed by the generic collectives at their
// static type), the payload's element count, and the depositor's virtual
// clock. unsafe.Pointer is traced by the garbage collector, so the payload
// stays alive for exactly as long as the slot references it.
type slotEntry struct {
	ptr   unsafe.Pointer
	n     int
	clock float64
}

// spinBudget is how many times a barrier waiter polls the generation,
// yielding its P between polls, before it parks. Chosen by a sweep of
// 16/256/2048 on the dist-mesh benchmark (DESIGN.md, "Waiting at a
// barrier"); 256 was best.
const spinBudget = 256

// world is the state every barrier of one Run shares, Split's included: the
// abort flag a panicking rank sets, and the one lock and condition variable
// parked waiters use, so one broadcast reaches them all.
type world struct {
	aborted atomic.Bool
	mu      sync.Mutex
	cond    sync.Cond
}

func newWorld() *world {
	w := &world{}
	w.cond.L = &w.mu
	return w
}

// errAborted is what a waiter panics with once its world is aborted; Run
// swallows it. Built once, so the abort path allocates nothing.
var errAborted = errors.New("comm: world aborted by a panicking rank")

// unwind is every rank's deferred exit. A waiter's errAborted is
// swallowed; any other panic aborts the world (the flag is set, then parked
// waiters are woken under the lock) and carries on to Run's join.
func (w *world) unwind() {
	if v := recover(); v != nil && v != errAborted {
		w.aborted.Store(true)
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
		panic(v)
	}
}

// barrier is a reusable generation barrier. Arrivals count through an
// atomic counter; the last arrival resets it and advances the generation,
// which releases the round. A waiter first polls the generation, calling
// runtime.Gosched between polls so its P runs another rank instead of
// idling, and only after spinBudget polls parks on the world's condition
// variable. Each poll, and each wake-up of a parked waiter, also checks the
// world's abort flag. The atomics are the happens-before edges of the
// exchange: every rank's slot write precedes its counter increment, the
// last increment precedes the generation advance, and every waiter
// observes that advance before it reads a peer's slot.
type barrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32
	w     *world
}

func (w *world) newBarrier(n int) *barrier { return &barrier{n: int32(n), w: w} }

func (b *barrier) wait() {
	if b.n <= 1 {
		return
	}
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.w.mu.Lock()
		b.gen.Store(g + 1)
		b.w.cond.Broadcast()
		b.w.mu.Unlock()
		return
	}
	for i := 0; i < spinBudget; i++ {
		if b.gen.Load() != g {
			return
		}
		if b.w.aborted.Load() {
			panic(errAborted)
		}
		runtime.Gosched()
	}
	b.w.mu.Lock()
	for b.gen.Load() == g && !b.w.aborted.Load() {
		b.w.cond.Wait()
	}
	b.w.mu.Unlock()
	if b.gen.Load() == g {
		panic(errAborted)
	}
}

// Comm is a communicator: a group of ranks sharing an exchange area and a
// barrier. The zero value is not usable; communicators are created by Run
// (the world) and Split (subgroups).
type Comm struct {
	rank  int
	size  int
	slots []slotEntry
	bar   *barrier
	stats *tally.Stats
	model *tally.Model
}

// Rank returns this rank's id within the communicator, in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// Stats returns this rank's performance counters (shared across all
// communicators the rank belongs to).
func (c *Comm) Stats() *tally.Stats { return c.stats }

// Run executes f on p ranks and waits for all of them. It returns the
// per-rank stats, whose virtual clocks and phase buckets describe the
// modelled execution (see package tally).
//
// The ranks run through par.For: a one-rank world runs f on the caller's
// goroutine, so a panic reaches the caller as the raw value. In a larger
// world a panicking rank aborts the world, so no rank stays blocked in a
// collective, and Run re-panics with a *par.Panic carrying the lowest
// panicking rank's value and stack.
func Run(p int, model *tally.Model, f func(c *Comm)) []*tally.Stats {
	if p < 1 {
		panic(fmt.Sprintf("comm: invalid world size %d", p))
	}
	if model == nil {
		model = tally.Edison()
	}
	w := newWorld()
	slots := make([]slotEntry, p)
	bar := w.newBarrier(p)
	stats := make([]*tally.Stats, p)
	par.For(p, func(r int) {
		defer w.unwind()
		stats[r] = tally.NewStats(model)
		f(&Comm{rank: r, size: p, slots: slots, bar: bar, stats: stats[r], model: model})
	})
	return stats
}

// elemWords returns the size of T in 8-byte words (fractional; sizes are
// known at compile time, no reflection involved).
func elemWords[T any]() float64 {
	var z T
	return float64(unsafe.Sizeof(z)) / 8
}

func words[T any](n int) int64 {
	w := elemWords[T]() * float64(n)
	iw := int64(w)
	if float64(iw) < w {
		iw++
	}
	return iw
}

// deposit publishes this rank's payload pointer and synchronizes; on return
// every member's entry is visible. The caller must call release exactly once
// after it has finished copying other ranks' payloads out of the exchange;
// that frees the exchange for reuse. (deposit does not return a release
// closure: a bound method value would allocate on every collective.)
func (c *Comm) deposit(ptr unsafe.Pointer, n int) {
	c.slots[c.rank] = slotEntry{ptr: ptr, n: n, clock: c.stats.ClockNs()}
	c.bar.wait()
}

// release is the second barrier of a collective, paired with deposit.
func (c *Comm) release() { c.bar.wait() }

// depositSlice publishes the backing array of a local slice (no copy, no
// boxing).
func depositSlice[T any](c *Comm, local []T) {
	c.deposit(unsafe.Pointer(unsafe.SliceData(local)), len(local))
}

// depositVal publishes a single value. The value escapes to the heap (one
// word-sized allocation); slot pointers keep it alive until the release.
func depositVal[T any](c *Comm, val T) {
	v := val
	c.deposit(unsafe.Pointer(&v), 1)
}

// peek returns rank r's deposited payload viewed as a []T. The view aliases
// the depositor's memory and is only valid until the release; callers copy
// out of it, never retain it.
func peek[T any](c *Comm, r int) []T {
	e := &c.slots[r]
	if e.n == 0 || e.ptr == nil {
		return nil
	}
	return unsafe.Slice((*T)(e.ptr), e.n)
}

// peekVal returns rank r's deposited single value.
func peekVal[T any](c *Comm, r int) T {
	return *(*T)(c.slots[r].ptr)
}

// maxClock scans the deposited entries for the maximum virtual clock.
func (c *Comm) maxClock() float64 {
	m := c.slots[0].clock
	for i := 1; i < c.size; i++ {
		if c.slots[i].clock > m {
			m = c.slots[i].clock
		}
	}
	return m
}

// Barrier synchronizes all ranks of the communicator (and their clocks).
func (c *Comm) Barrier() {
	if c.size == 1 {
		return
	}
	c.deposit(nil, 0)
	sync := c.maxClock()
	cost := c.model.BarrierCost(c.size)
	c.stats.CommSync(sync, cost, 1, 0)
	c.release()
}

// AllGather gathers one value per rank; the result is indexed by rank.
func AllGather[T any](c *Comm, val T) []T {
	out := make([]T, c.size)
	if c.size == 1 {
		out[0] = val
		return out
	}
	depositVal(c, val)
	sync := c.maxClock()
	for i := 0; i < c.size; i++ {
		out[i] = peekVal[T](c, i)
	}
	cost := c.model.AllGatherCost(c.size, int64(c.size)*words[T](1))
	c.stats.CommSync(sync, cost, int64(c.size-1), words[T](1)*int64(c.size-1))
	c.release()
	return out
}

// AllGathervConcat gathers every rank's local slice and concatenates the
// pieces in rank order.
func AllGathervConcat[T any](c *Comm, local []T) []T {
	return AllGathervConcatInto(c, local, nil)
}

// AllGathervConcatInto is AllGathervConcat appending into into[:0] (grown as
// needed); the returned slice is the concatenation and shares into's storage
// when it fits. Passing nil allocates fresh.
func AllGathervConcatInto[T any](c *Comm, local []T, into []T) []T {
	if c.size == 1 {
		return append(into[:0], local...)
	}
	depositSlice(c, local)
	sync := c.maxClock()
	total := 0
	var totalWords int64
	for i := 0; i < c.size; i++ {
		n := c.slots[i].n
		total += n
		totalWords += words[T](n)
	}
	out := into[:0]
	if cap(out) < total {
		out = make([]T, 0, total)
	}
	for i := 0; i < c.size; i++ {
		out = append(out, peek[T](c, i)...)
	}
	cost := c.model.AllGatherCost(c.size, totalWords)
	sent := words[T](len(local)) * int64(c.size-1)
	c.stats.CommSync(sync, cost, int64(c.size-1), sent)
	c.release()
	return out
}

// allToAllvCost charges the modelled cost and traffic counters of a
// personalized exchange with the given send lists and received word count:
// the dense all-to-all price, or with neighbor the neighbourhood price, which
// charges latency only for the non-empty sends.
func allToAllvCost[T any](c *Comm, sync float64, send [][]T, recvWords int64, neighbor bool) {
	var sentWords int64
	var msgs int64
	for i := 0; i < c.size; i++ {
		if i == c.rank {
			continue
		}
		n := len(send[i])
		sentWords += words[T](n)
		if n > 0 {
			msgs++
		}
	}
	moved := sentWords
	if recvWords > moved {
		moved = recvWords
	}
	cost := c.model.AllToAllCost(c.size, moved)
	if neighbor {
		cost = c.model.NeighborCost(msgs, moved)
	}
	c.stats.CommSync(sync, cost, msgs, sentWords)
}

// AllToAllvConcat performs a personalized exchange, send[i] going to rank
// i, and returns the received pieces concatenated in source-rank order,
// together with the per-source counts. len(send) must equal c.Size(); nil
// sub-slices are allowed. into and counts are optional scratch buffers
// reused when large enough, so steady-state callers can exchange without
// allocating; pass nil to allocate fresh. The concatenation is the natural
// form for callers that merge the pieces anyway (SpMSpV, SORTPERM).
func AllToAllvConcat[T any](c *Comm, send [][]T, into []T, counts []int) ([]T, []int) {
	return allToAllvConcat(c, send, into, counts, false)
}

// NeighborAllToAllvConcat is AllToAllvConcat priced as a neighbourhood
// exchange (MPI_Neighbor_alltoallv, PETSc's VecScatter): it moves the same
// data and counts the same messages and words, but charges α per non-empty
// send instead of α·(q−1) (tally.Model.NeighborCost). Clocks still sync to
// the group maximum first. It is the halo exchange of a sparse
// matrix-vector product, whose ranks talk to a few neighbours each.
func NeighborAllToAllvConcat[T any](c *Comm, send [][]T, into []T, counts []int) ([]T, []int) {
	return allToAllvConcat(c, send, into, counts, true)
}

func allToAllvConcat[T any](c *Comm, send [][]T, into []T, counts []int, neighbor bool) ([]T, []int) {
	if len(send) != c.size {
		panic(fmt.Sprintf("comm: AllToAllvConcat send has %d buffers for %d ranks", len(send), c.size))
	}
	if cap(counts) < c.size {
		counts = make([]int, c.size)
	}
	counts = counts[:c.size]
	if c.size == 1 {
		counts[0] = len(send[0])
		return append(into[:0], send[0]...), counts
	}
	depositSlice(c, send)
	sync := c.maxClock()
	total := 0
	for i := 0; i < c.size; i++ {
		theirs := peek[[]T](c, i)
		counts[i] = len(theirs[c.rank])
		total += counts[i]
	}
	out := into[:0]
	if cap(out) < total {
		out = make([]T, 0, total)
	}
	var recvWords int64
	for i := 0; i < c.size; i++ {
		theirs := peek[[]T](c, i)
		out = append(out, theirs[c.rank]...)
		recvWords += words[T](len(theirs[c.rank]))
	}
	allToAllvCost(c, sync, send, recvWords, neighbor)
	c.release()
	return out, counts
}

// AllReduce folds one value per rank with op, in rank order, and returns the
// identical result on every rank. op must be associative; rank-order folding
// keeps the result deterministic even for non-commutative tie-breaking ops.
func AllReduce[T any](c *Comm, val T, op func(a, b T) T) T {
	if c.size == 1 {
		return val
	}
	depositVal(c, val)
	sync := c.maxClock()
	acc := peekVal[T](c, 0)
	for i := 1; i < c.size; i++ {
		acc = op(acc, peekVal[T](c, i))
	}
	cost := c.model.AllReduceCost(c.size, words[T](1))
	c.stats.CommSync(sync, cost, 2*int64(log2int(c.size)), 2*words[T](1))
	c.release()
	return acc
}

// AllReduceSliceInto element-wise folds equal-length slices across ranks with
// op, in rank order, and returns the identical result slice on every rank
// (into is reused when large enough; pass nil to allocate fresh). This is the
// dense-vector collective of the direction-optimized BFS: frontier and
// visited bitmaps are OR-reduced along a grid dimension as packed words, and
// its modelled cost is the long-vector (reduce-scatter + all-gather) shape of
// tally.AllReduceSliceCost rather than the short-vector tree of AllReduce.
// Every rank must pass the same length; into must not alias local.
func AllReduceSliceInto[T any](c *Comm, local []T, op func(a, b T) T, into []T) []T {
	out := into[:0]
	if cap(out) < len(local) {
		out = make([]T, 0, len(local))
	}
	out = append(out, local...)
	if c.size == 1 {
		return out
	}
	depositSlice(c, local)
	sync := c.maxClock()
	for i := 0; i < c.size; i++ {
		if c.slots[i].n != len(local) {
			panic(fmt.Sprintf("comm: AllReduceSliceInto length mismatch: rank %d has %d elements, rank %d has %d",
				c.rank, len(local), i, c.slots[i].n))
		}
	}
	// Fold strictly in rank order (like AllReduce); out starts as rank 0's
	// payload and accumulates the rest, this rank's own contribution read
	// from the original local slice via its slot.
	copy(out, peek[T](c, 0))
	for i := 1; i < c.size; i++ {
		theirs := peek[T](c, i)
		for k := range out {
			out[k] = op(out[k], theirs[k])
		}
	}
	w := words[T](len(local))
	cost := c.model.AllReduceSliceCost(c.size, w)
	c.stats.CommSync(sync, cost, 2*int64(log2int(c.size)), 2*w)
	c.release()
	return out
}

// AllReduceSum is AllReduce specialised to integer sums.
func AllReduceSum(c *Comm, val int64) int64 {
	return AllReduce(c, val, func(a, b int64) int64 { return a + b })
}

// Addable is the constraint of ExScan: element types with a built-in +.
type Addable interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// ExScan returns the exclusive prefix sum over ranks of val (rank 0 gets the
// zero value), together with the total sum on every rank.
func ExScan[T Addable](c *Comm, val T) (prefix, total T) {
	if c.size == 1 {
		return prefix, val
	}
	depositVal(c, val)
	sync := c.maxClock()
	for i := 0; i < c.size; i++ {
		v := peekVal[T](c, i)
		if i < c.rank {
			prefix += v
		}
		total += v
	}
	cost := c.model.AllReduceCost(c.size, words[T](1))
	c.stats.CommSync(sync, cost, 2*int64(log2int(c.size)), 2*words[T](1))
	c.release()
	return prefix, total
}

// Gatherv gathers every rank's slice at root; non-root ranks receive nil.
// The concatenation is in rank order.
func Gatherv[T any](c *Comm, local []T, root int) []T {
	if c.size == 1 {
		return append([]T(nil), local...)
	}
	depositSlice(c, local)
	sync := c.maxClock()
	var out []T
	var totalWords int64
	for i := 0; i < c.size; i++ {
		totalWords += words[T](c.slots[i].n)
	}
	if c.rank == root {
		total := 0
		for i := 0; i < c.size; i++ {
			total += c.slots[i].n
		}
		out = make([]T, 0, total)
		for i := 0; i < c.size; i++ {
			out = append(out, peek[T](c, i)...)
		}
	}
	cost := c.model.AllGatherCost(c.size, totalWords) // tree gather, same α term
	var msgs, sent int64
	if c.rank != root {
		msgs, sent = 1, words[T](len(local))
	}
	c.stats.CommSync(sync, cost, msgs, sent)
	c.release()
	return out
}

// ExchangeInto swaps a slice with a partner rank (a point-to-point
// sendrecv, used for the transpose exchange of the 2D SpMSpV), appending
// what the partner sent into into[:0] (grown as needed; nil allocates
// fresh). Both ranks of a pair must call ExchangeInto with each other's rank
// in the same collective step; all other ranks of the communicator must call
// it too (possibly with partner == own rank, which is a local copy). This
// keeps the operation bulk-synchronous, matching how the CombBLAS vector
// transpose behaves between two barriers.
func ExchangeInto[T any](c *Comm, partner int, data []T, into []T) []T {
	if partner == c.rank {
		// Still participate in the collective step.
		if c.size > 1 {
			c.deposit(nil, 0)
			sync := c.maxClock()
			c.stats.CommSync(sync, 0, 0, 0)
			c.release()
		}
		return append(into[:0], data...)
	}
	depositSlice(c, data)
	sync := c.maxClock()
	src := peek[T](c, partner)
	out := append(into[:0], src...)
	w := words[T](len(data))
	rw := words[T](len(src))
	if rw > w {
		w = rw
	}
	cost := c.model.P2PCost(w)
	c.stats.CommSync(sync, cost, 1, words[T](len(data)))
	c.release()
	return out
}

// splitKey is the record gathered during Split.
type splitKey struct {
	color, key, rank int
}

// splitShare is what a group leader publishes to its members.
type splitShare struct {
	slots []slotEntry
	bar   *barrier
}

// Split partitions the communicator into sub-communicators by color, ranked
// by (key, old rank), exactly like MPI_Comm_split. Every rank must call it.
func (c *Comm) Split(color, key int) *Comm {
	if c.size == 1 {
		return &Comm{rank: 0, size: 1, slots: make([]slotEntry, 1), bar: c.bar.w.newBarrier(1), stats: c.stats, model: c.model}
	}
	// Round 1: gather everyone's (color, key).
	keys := AllGather(c, splitKey{color, key, c.rank})
	group := make([]splitKey, 0, c.size)
	for _, k := range keys {
		if k.color == color {
			group = append(group, k)
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].rank < group[j].rank
	})
	newRank := -1
	for i, g := range group {
		if g.rank == c.rank {
			newRank = i
			break
		}
	}
	leader := group[0].rank
	// Round 2: the leader of each group allocates the shared state and
	// publishes it in its own slot; members read it.
	if c.rank == leader {
		depositVal(c, splitShare{slots: make([]slotEntry, len(group)), bar: c.bar.w.newBarrier(len(group))})
	} else {
		c.deposit(nil, 0)
	}
	share := peekVal[splitShare](c, leader)
	sub := &Comm{rank: newRank, size: len(group), slots: share.slots, bar: share.bar, stats: c.stats, model: c.model}
	sync := c.maxClock()
	c.stats.CommSync(sync, c.model.AllGatherCost(c.size, int64(c.size)), 1, 1)
	c.release()
	return sub
}

func log2int(q int) int {
	l := 0
	for v := q - 1; v > 0; v >>= 1 {
		l++
	}
	return l
}
