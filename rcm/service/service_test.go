package service_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/rcm"
	"repro/rcm/service"
)

// pair is one (matrix, options) workload of the concurrency tests.
type pair struct {
	name string
	a    *rcm.Matrix
	sp   service.Spec
}

// testPairs builds eight distinct (matrix, options) pairs spanning all four
// backends, two sharing a matrix (distinct options fingerprint) and two
// sharing options (distinct digest).
func testPairs() []pair {
	g2, _ := rcm.Scramble(rcm.Grid2D(24, 18), 1)
	g3, _ := rcm.Scramble(rcm.Grid3D(8, 7, 6, 1, true), 2)
	rr := rcm.RandomRegular(400, 4, 5)
	dis := rcm.Disconnected(rcm.Path(60), rcm.Grid2D(12, 12))
	start := 7
	return []pair{
		{"seq", g2, service.Spec{}},
		{"seq-other-matrix", g3, service.Spec{}},
		{"shared", g2, service.Spec{Backend: "shared", Threads: 3}},
		{"alg-bicriteria", g3, service.Spec{Backend: "algebraic", Heuristic: "bi-criteria"}},
		{"dist", rr, service.Spec{Backend: "distributed", Procs: 4, Threads: 2}},
		{"dist-hyper", rr, service.Spec{Backend: "distributed", Procs: 9, Sort: "local", Hypersparse: service.Bool(true)}},
		{"mindeg-start", dis, service.Spec{Heuristic: "min-degree"}},
		{"pinned-start", dis, service.Spec{Start: &start, Heuristic: "first-vertex", NoReverse: service.Bool(true)}},
	}
}

// reference computes each pair's permutation by calling rcm.Order directly,
// single-threaded — the oracle the service responses must match byte for
// byte.
func reference(t *testing.T, pairs []pair) [][]int {
	t.Helper()
	perms := make([][]int, len(pairs))
	for i, p := range pairs {
		opts, err := p.sp.Options()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		res, err := rcm.Order(p.a, opts...)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		perms[i] = res.Perm
	}
	return perms
}

// TestConcurrentMixedBackends is the acceptance scenario at the Service
// level: 64 concurrent requests over 8 distinct (matrix, options) pairs.
// Every response must be byte-identical to the direct rcm.Order oracle, at
// most one computation may run per pair (the other 56 admissions are cache
// hits or single-flight dedups), and a trailing identical request must be a
// pure cache hit that queues no new job.
func TestConcurrentMixedBackends(t *testing.T) {
	pairs := testPairs()
	want := reference(t, pairs)

	svc := service.New(service.Config{Workers: 4})
	defer svc.Close()

	const replicas = 8 // 8 pairs × 8 replicas = 64 concurrent requests
	var wg sync.WaitGroup
	errs := make(chan error, len(pairs)*replicas)
	for r := 0; r < replicas; r++ {
		for i, p := range pairs {
			wg.Add(1)
			go func(i int, p pair) {
				defer wg.Done()
				resp, err := svc.Order(context.Background(), p.a, p.sp)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(resp.Perm, want[i]) {
					t.Errorf("%s: permutation differs from direct rcm.Order", p.name)
				}
			}(i, p)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.Jobs != uint64(len(pairs)) {
		t.Errorf("pool executed %d jobs, want exactly %d (one per distinct pair)", st.Jobs, len(pairs))
	}
	if st.Misses != uint64(len(pairs)) {
		t.Errorf("misses = %d, want %d", st.Misses, len(pairs))
	}
	if saved := st.Hits + st.Dedups; saved != uint64(replicas*len(pairs)-len(pairs)) {
		t.Errorf("hits+dedups = %d (%d hits, %d dedups), want %d",
			saved, st.Hits, st.Dedups, replicas*len(pairs)-len(pairs))
	}

	// A repeated identical request is served without recomputation: the
	// hit counter increments and the pool runs no new job.
	resp, err := svc.Order(context.Background(), pairs[0].a, pairs[0].sp)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("repeated identical request was not a cache hit")
	}
	after := svc.Stats()
	if after.Hits != st.Hits+1 {
		t.Errorf("hit counter went %d -> %d, want +1", st.Hits, after.Hits)
	}
	if after.Jobs != st.Jobs {
		t.Errorf("repeat queued a new job (%d -> %d)", st.Jobs, after.Jobs)
	}
}

// TestSingleFlight pins the dedup mechanism: with one worker held busy by a
// blocker job, identical requests stack up on one flight — observed while
// in progress via the inflight counter — and exactly one computation runs.
func TestSingleFlight(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()

	blocker := rcm.RandomRegular(30000, 6, 9)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := svc.Order(context.Background(), blocker, service.Spec{}); err != nil {
			t.Error(err)
		}
	}()
	// Wait until the worker owns the blocker, so the followers' key stays
	// queued long enough for all of them to join one flight.
	for svc.Stats().Jobs == 0 && svc.Stats().Inflight == 0 {
		time.Sleep(time.Millisecond)
	}

	a, _ := rcm.Scramble(rcm.Grid2D(20, 20), 3)
	const followers = 6
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A latecomer after the flight lands is a cache hit; both
			// dispositions count against followers-1 below.
			if _, err := svc.Order(context.Background(), a, service.Spec{}); err != nil {
				t.Error(err)
			}
		}()
	}
	// The inflight gauge must witness the coalesced computation while the
	// followers wait.
	sawInflight := false
	for i := 0; i < 1000 && !sawInflight; i++ {
		if svc.Stats().Inflight >= 1 {
			sawInflight = true
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	if !sawInflight {
		t.Error("inflight counter never observed the in-progress flight")
	}
	st := svc.Stats()
	if st.Jobs != 2 {
		t.Errorf("pool executed %d jobs, want 2 (blocker + one coalesced computation)", st.Jobs)
	}
	if st.Dedups+st.Hits != followers-1 {
		t.Errorf("dedups+hits = %d+%d, want %d", st.Dedups, st.Hits, followers-1)
	}
}

// TestCacheEviction bounds the cache: a byte budget that holds roughly one
// permutation forces LRU eviction, and a re-request of an evicted entry
// recomputes.
func TestCacheEviction(t *testing.T) {
	a1, _ := rcm.Scramble(rcm.Grid2D(30, 10), 1)
	a2, _ := rcm.Scramble(rcm.Grid2D(30, 10), 2)
	a3, _ := rcm.Scramble(rcm.Grid2D(30, 10), 3)
	ctx := context.Background()

	// Probe one entry's accounted size (all three are the same shape:
	// same n, same options, same key length), then budget two and a half
	// entries — the third insert must evict.
	probe := service.New(service.Config{Workers: 1})
	if _, err := probe.Order(ctx, a1, service.Spec{}); err != nil {
		t.Fatal(err)
	}
	entryBytes := probe.Stats().Bytes
	probe.Close()
	if entryBytes == 0 {
		t.Fatal("probe cached nothing")
	}
	svc := service.New(service.Config{Workers: 2, CacheBytes: entryBytes * 5 / 2})
	defer svc.Close()
	for _, a := range []*rcm.Matrix{a1, a2, a3} {
		if _, err := svc.Order(ctx, a, service.Spec{}); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a two-entry budget (entries=%d bytes=%d)", st.Entries, st.Bytes)
	}
	if st.Bytes > st.CapacityBytes {
		t.Errorf("cache %d bytes over its %d budget", st.Bytes, st.CapacityBytes)
	}
	// a1 was the coldest entry, so it recomputes; a3 is still resident.
	if resp, err := svc.Order(ctx, a1, service.Spec{}); err != nil {
		t.Fatal(err)
	} else if resp.Cached {
		t.Error("evicted entry reported as a cache hit")
	}
	if resp, err := svc.Order(ctx, a3, service.Spec{}); err != nil {
		t.Fatal(err)
	} else if !resp.Cached {
		t.Error("most recent entry was not resident")
	}
}

// TestCacheDisabled: a negative budget turns the cache off; identical
// sequential requests recompute (single-flight still applies to concurrent
// ones, but these are serial).
func TestCacheDisabled(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, CacheBytes: -1})
	defer svc.Close()
	a, _ := rcm.Scramble(rcm.Grid2D(12, 12), 1)
	for i := 0; i < 2; i++ {
		resp, err := svc.Order(context.Background(), a, service.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached {
			t.Error("cache hit with caching disabled")
		}
	}
	if st := svc.Stats(); st.Jobs != 2 {
		t.Errorf("jobs = %d, want 2", st.Jobs)
	}
}

// TestSpecErrors: malformed specs are rejected before any job is queued,
// with the rcm package's descriptive errors.
func TestSpecErrors(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	a := rcm.Grid2D(4, 4)
	cases := map[string]service.Spec{
		"unknown backend":   {Backend: "gpu"},
		"unknown sort":      {Sort: "bogosort"},
		"unknown heuristic": {Heuristic: "astrology"},
		"unknown direction": {Direction: "sideways"},
		"non-square procs":  {Backend: "distributed", Procs: 5},
		"weights sans bc":   {WidthWeight: 2, HeightWeight: 1},
	}
	for name, sp := range cases {
		if _, err := svc.Order(context.Background(), a, sp); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := svc.Order(context.Background(), nil, service.Spec{}); err == nil ||
		!strings.Contains(err.Error(), "nil matrix") {
		t.Errorf("nil matrix: err = %v", err)
	}
}

// TestDefaultSpecOverlay: server defaults apply to unset fields and
// per-request values win; both spellings resolve to one cache key.
func TestDefaultSpecOverlay(t *testing.T) {
	svc := service.New(service.Config{
		Workers:     2,
		DefaultSpec: service.Spec{Backend: "shared", Threads: 3},
	})
	defer svc.Close()
	a, _ := rcm.Scramble(rcm.Grid2D(16, 16), 4)

	r1, err := svc.Order(context.Background(), a, service.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Backend != "shared" || r1.Threads != 3 {
		t.Errorf("defaults not applied: backend=%s threads=%d", r1.Backend, r1.Threads)
	}
	// Spelling the same configuration explicitly hits the same key.
	r2, err := svc.Order(context.Background(), a, service.Spec{Backend: "shared", Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || r2.Key != r1.Key {
		t.Errorf("equivalent spellings did not share a cache key (%q vs %q)", r1.Key, r2.Key)
	}
	// An override changes the key.
	r3, err := svc.Order(context.Background(), a, service.Spec{Backend: "sequential"})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached || r3.Backend != "sequential" {
		t.Errorf("override not honored: cached=%v backend=%s", r3.Cached, r3.Backend)
	}
}

// TestDefaultSpecBoolOverride: an explicit false must defeat a server-side
// true default — the tri-state booleans' reason to exist.
func TestDefaultSpecBoolOverride(t *testing.T) {
	svc := service.New(service.Config{
		Workers:     1,
		DefaultSpec: service.Spec{NoReverse: service.Bool(true)},
	})
	defer svc.Close()
	a, _ := rcm.Scramble(rcm.Grid2D(10, 10), 6)

	cm, err := svc.Order(context.Background(), a, service.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	rcmResp, err := svc.Order(context.Background(), a, service.Spec{NoReverse: service.Bool(false)})
	if err != nil {
		t.Fatal(err)
	}
	if rcmResp.Cached || rcmResp.Key == cm.Key {
		t.Fatal("explicit noReverse=false did not override the server default")
	}
	// The default run is plain Cuthill-McKee: the override's reversal.
	n := len(cm.Perm)
	for k := range cm.Perm {
		if cm.Perm[k] != rcmResp.Perm[n-1-k] {
			t.Fatalf("position %d: default run is not the reverse of the override run", k)
		}
	}
}

// TestClose: requests after Close fail fast with ErrClosed, and Close is
// idempotent.
func TestClose(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	a := rcm.Grid2D(6, 6)
	if _, err := svc.Order(context.Background(), a, service.Spec{}); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	svc.Close()
	if _, err := svc.Order(context.Background(), a, service.Spec{}); err != service.ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

// TestCloseFailsWaitingOrderings: with one worker busy and four distinct
// orderings waiting for it, Close lets the running ordering finish and
// fails the four with ErrClosed — none of them runs — and leaves no flight
// or goroutine behind. All five order the same large matrix under
// distinct start vertices, so whichever takes the worker first is the
// running one. The rounds catch a shutdown that lets a freed worker pick
// the next waiting job or the quit signal at random: such a Close passes
// one round with probability ½, and all eight with 1/256.
func TestCloseFailsWaitingOrderings(t *testing.T) {
	a := rcm.RandomRegular(60000, 6, 9)
	a.Digest() // computed once here, not inside the rounds
	base := runtime.NumGoroutine()
	for round := 0; round < 8; round++ {
		svc := service.New(service.Config{Workers: 1})
		errs := make(chan error, 5)
		for start := 0; start < 5; start++ {
			go func(start int) {
				_, err := svc.Order(context.Background(), a, service.Spec{Start: &start})
				errs <- err
			}(start)
		}
		deadline := time.Now().Add(10 * time.Second)
		for st := svc.Stats(); st.Inflight != 5 || st.QueueDepth != 4; st = svc.Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: never saw 1 running + 4 waiting (%+v)", round, st)
			}
			time.Sleep(200 * time.Microsecond)
		}
		svc.Close()

		var ok, closed int
		for i := 0; i < 5; i++ {
			switch err := <-errs; {
			case err == nil:
				ok++
			case errors.Is(err, service.ErrClosed):
				closed++
			default:
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if ok != 1 || closed != 4 {
			t.Errorf("round %d: %d orderings served and %d failed with ErrClosed, want 1 and 4", round, ok, closed)
		}
		if st := svc.Stats(); st.Jobs != 1 || st.Inflight != 0 {
			t.Errorf("round %d: jobs=%d inflight=%d after Close, want 1 and 0", round, st.Jobs, st.Inflight)
		}
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d goroutines after Close, baseline %d", round, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestContextCancelled: a request whose context is already done never
// hangs; it either completes (the job raced ahead) or reports the context
// error.
func TestContextCancelled(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := svc.Order(ctx, rcm.Grid2D(8, 8), service.Spec{})
	if err != nil && err != context.Canceled {
		t.Errorf("err = %v, want nil or context.Canceled", err)
	}
}
