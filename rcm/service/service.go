// Package service turns the rcm facade into an ordering-as-a-service layer:
// an embeddable, goroutine-safe Service that runs rcm.Order jobs on a
// fixed number of worker slots behind a content-addressed result cache,
// with single-flight deduplication so concurrent identical requests
// compute once (both from internal/memo). Command rcmserve exposes a Service over HTTP (see NewHandler);
// embedded users call Order directly.
//
// The cache key is rcm's own content address: Matrix.Digest (a SHA-256 of
// the canonical sparsity pattern) joined with rcm.OptionsFingerprint (the
// canonical rendering of the resolved option set). Two requests therefore
// share one cached Result exactly when Order would have behaved
// identically for both — regardless of where the matrix bytes came from or
// how the options were spelled. Entries are evicted least recently used
// under a byte budget (Config.CacheBytes).
//
// Every response reports how it was served (computed, cache hit, or
// coalesced onto an in-flight computation), and Stats exposes the
// operational counters — hit/miss/dedup/eviction counts, queue depth,
// per-backend latency histograms, and the cumulative modelled BSP
// breakdown of the distributed jobs — that /metrics exports. See
// OPERATIONS.md for running and sizing the server.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detmap"
	"repro/internal/memo"
	"repro/rcm"
)

// ErrClosed is returned by Order once Close has been called.
var ErrClosed = errors.New("service: closed")

// Config sizes a Service.
type Config struct {
	// Workers is the worker-slot count: at most this many rcm.Order jobs
	// run concurrently; the rest wait for a slot. 0 defaults to runtime.GOMAXPROCS(0). Note the
	// Shared and Distributed backends are internally parallel, so the
	// effective CPU demand is Workers × per-job threads.
	Workers int
	// CacheBytes is the result cache's byte budget (permutations
	// dominate: ~8 bytes per vertex per entry). 0 defaults to 256 MiB;
	// negative disables caching.
	CacheBytes int64
	// MaxUploadBytes bounds one HTTP request body (0 defaults to 1 GiB).
	// It caps the stream, not the decoded matrix: a compact binary upload
	// expands ~8-16× into CSR arrays, so size host memory for
	// workers × the expanded working set.
	MaxUploadBytes int64
	// DefaultSpec supplies server-side defaults for fields a request's
	// Spec leaves unset (e.g. a default backend and process count).
	DefaultSpec Spec
}

// Response is one served ordering: the request's cache identity, how it was
// served, and the rcm.Result content flattened into a wire-friendly form.
// Perm is shared with the service's cache — treat it as read-only.
type Response struct {
	// Key is the content-addressed cache key (matrix digest |
	// options fingerprint).
	Key string `json:"key"`
	// Cached reports a cache hit; Deduped reports the request was
	// coalesced onto an identical in-flight computation. Both false
	// means this request's job computed the result.
	Cached  bool `json:"cached"`
	Deduped bool `json:"deduped"`
	// N and NNZ describe the ordered matrix.
	N   int `json:"n"`
	NNZ int `json:"nnz"`
	// Ordering is the family that ran (rcm|amd|sloan); Backend, Procs and
	// Threads record the configuration.
	Ordering string `json:"ordering"`
	Backend  string `json:"backend"`
	Procs    int    `json:"procs"`
	Threads  int    `json:"threads"`
	// Components and PseudoDiameter mirror rcm.Result.
	Components     int `json:"components"`
	PseudoDiameter int `json:"pseudoDiameter"`
	// Before and After are the ordering-quality statistics.
	Before rcm.Stats `json:"before"`
	After  rcm.Stats `json:"after"`
	// Perm is the permutation in symrcm convention (omitted over HTTP
	// with ?perm=0).
	Perm []int `json:"perm,omitempty"`
	// Modeled is the distributed backend's modelled BSP breakdown.
	Modeled *rcm.Breakdown `json:"modeled,omitempty"`
	// ComponentStats reports what the component scheduler did; present
	// only when the request enabled component scheduling.
	ComponentStats *rcm.ComponentStats `json:"componentStats,omitempty"`
}

// Stats is a point-in-time snapshot of the service's operational counters.
type Stats struct {
	// Hits, Misses and Dedups partition completed admissions: served
	// from cache, computed fresh, or coalesced onto an in-flight job.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Dedups uint64 `json:"dedups"`
	// Evictions counts cache entries dropped by the byte budget.
	Evictions uint64 `json:"evictions"`
	// Jobs counts orderings actually executed by the workers — the
	// recomputation work the cache and single-flight saved is
	// Hits + Dedups.
	Jobs uint64 `json:"jobs"`
	// Inflight is the number of distinct keys currently computing,
	// orderings and components analyses alike; QueueDepth the orderings
	// waiting for a worker slot (uncapped: a value that stays above 0
	// means the pool is saturated).
	Inflight   int `json:"inflight"`
	QueueDepth int `json:"queueDepth"`
	// Entries and Bytes describe the cache's current occupancy against
	// CapacityBytes.
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	CapacityBytes int64 `json:"capacityBytes"`
	// Workers echoes the pool size.
	Workers int `json:"workers"`
	// Orderings counts executed jobs per ordering family (rcm|amd|sloan)
	// — computed ones; cache hits and dedups add nothing, matching Jobs.
	Orderings map[string]uint64 `json:"orderings,omitempty"`
	// Latency holds one wall-clock histogram per backend that executed
	// at least one job.
	Latency map[string]LatencyStats `json:"latency,omitempty"`
	// Modeled is the cumulative modelled BSP phase breakdown summed over
	// all distributed jobs (computed ones — cache hits add nothing).
	Modeled []PhaseSeconds `json:"modeled,omitempty"`
}

// LatencyStats is one backend's latency histogram: cumulative bucket counts
// in the Prometheus convention plus count and sum.
type LatencyStats struct {
	Count        uint64          `json:"count"`
	TotalSeconds float64         `json:"totalSeconds"`
	Buckets      []LatencyBucket `json:"buckets"`
}

// LatencyBucket is a cumulative count of observations at or under
// LeSeconds.
type LatencyBucket struct {
	LeSeconds float64 `json:"le"`
	Count     uint64  `json:"count"`
}

// PhaseSeconds is the cumulative modelled time of one BSP phase.
type PhaseSeconds struct {
	Phase       string  `json:"phase"`
	CompSeconds float64 `json:"compSeconds"`
	CommSeconds float64 `json:"commSeconds"`
}

// Service is the concurrent ordering service. Create one with New, share it
// freely across goroutines, and Close it when done. All exported methods
// are goroutine-safe.
type Service struct {
	cfg      Config
	cache    *memo.Cache[any] // *Response and *ComponentsResponse under one budget
	slots    chan struct{}    // one per worker, held while an ordering runs
	quit     chan struct{}    // closed by Close: orderings still waiting fail
	waiting  atomic.Int64     // orderings waiting for a slot
	closed   atomic.Bool
	draining atomic.Bool

	mu        sync.Mutex
	jobsRun   uint64
	latency   map[string]*latencyHist
	modeled   map[string]*phaseAgg // phase name -> cumulative modelled seconds
	orderings map[string]uint64    // ordering family -> executed job count
}

type phaseAgg struct{ comp, comm float64 }

// New returns a Service with cfg's worker slots and cache. Close it to
// fail waiting orderings and wait for running ones.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 256 << 20
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 1 << 30
	}
	return &Service{
		cfg:       cfg,
		cache:     memo.New(cfg.CacheBytes, entryBytes),
		slots:     make(chan struct{}, cfg.Workers),
		quit:      make(chan struct{}),
		latency:   make(map[string]*latencyHist),
		modeled:   make(map[string]*phaseAgg),
		orderings: make(map[string]uint64),
	}
}

// OrderKey returns the content-addressed cache key an ordering request
// resolves to: the matrix pattern digest joined with the canonical
// fingerprint of sp's resolved option set. It is exactly the key Order
// uses (and the Response.Key / X-RCM-Key value a server reports), exported
// so routing tiers — the rcmproxy consistent-hash front end in package
// cluster — can place a request on a replica without running it. Callers
// fronting a server configured with a DefaultSpec should pass
// defaults.Overlay(sp) to reproduce that server's key.
func OrderKey(digest string, sp Spec) (string, error) {
	opts, err := sp.Options()
	if err != nil {
		return "", err
	}
	return digest + "|" + rcm.OptionsFingerprint(opts...), nil
}

// SetDraining marks the service as draining (or clears the mark): Healthz
// turns 503 so routing tiers stop sending new work, while Order keeps
// serving — the point is to finish in-flight and imminent requests, not to
// refuse them. Command rcmserve sets it on SIGTERM before closing the
// listener; see the graceful-drain sequence in OPERATIONS.md.
func (s *Service) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether SetDraining(true) was called.
func (s *Service) Draining() bool { return s.draining.Load() }

// Order serves one ordering request: from the cache when the content
// address is known, by joining an identical in-flight computation when one
// is running, and otherwise by computing it once a worker slot is free.
// The context bounds this caller's wait only: the computation is shared
// with deduplicated followers and is never cancelled — an identical later
// request would only pay for it again.
func (s *Service) Order(ctx context.Context, a *rcm.Matrix, sp Spec) (*Response, error) {
	if a == nil {
		return nil, fmt.Errorf("service: nil matrix")
	}
	opts, err := s.cfg.DefaultSpec.overlay(sp).Options()
	if err != nil {
		return nil, err
	}
	key := a.Digest() + "|" + rcm.OptionsFingerprint(opts...)
	shared, out, err := admit[Response](s, ctx, key, func() (any, error) { return s.order(key, a, opts) })
	if err != nil {
		return nil, err
	}
	r := *shared
	r.Cached, r.Deduped = out == memo.Hit, out == memo.Shared
	return &r, nil
}

// admit is the one admission path of Order and Components: refuse once
// closed, else serve key through the shared cache. The result is shared
// with the cache and every other requester of key; callers label a copy.
// Ordering and components keys never collide (see componentsKeySuffix),
// so a key's value is always an *R.
func admit[R any](s *Service, ctx context.Context, key string, fill func() (any, error)) (*R, memo.Outcome, error) {
	if s.closed.Load() {
		return nil, memo.Miss, ErrClosed
	}
	v, out, err := s.cache.Get(ctx, key, fill)
	if err != nil {
		return nil, out, err
	}
	return v.(*R), out, nil
}

// order is the ordering fill: it takes a worker slot, runs rcm.Order and
// records the job.
func (s *Service) order(key string, a *rcm.Matrix, opts []rcm.Option) (*Response, error) {
	if !s.acquire() {
		return nil, ErrClosed
	}
	defer func() { <-s.slots }()
	start := time.Now()
	res, err := rcm.Order(a, opts...)
	elapsed := time.Since(start)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobsRun++
	if err != nil {
		return nil, err
	}
	resp := &Response{
		Key:            key,
		N:              a.N(),
		NNZ:            a.NNZ(),
		Ordering:       res.Ordering.String(),
		Backend:        res.Backend.String(),
		Procs:          res.Procs,
		Threads:        res.Threads,
		Components:     res.Components,
		PseudoDiameter: res.PseudoDiameter,
		Before:         res.Before,
		After:          res.After,
		Perm:           res.Perm,
		Modeled:        res.Modeled,
		ComponentStats: res.ComponentStats,
	}
	s.orderings[resp.Ordering]++
	h := s.latency[resp.Backend]
	if h == nil {
		h = &latencyHist{}
		s.latency[resp.Backend] = h
	}
	h.observe(elapsed)
	if resp.Modeled != nil {
		for _, p := range resp.Modeled.Phases {
			agg := s.modeled[p.Name]
			if agg == nil {
				agg = &phaseAgg{}
				s.modeled[p.Name] = agg
			}
			agg.comp += p.CompSeconds
			agg.comm += p.CommSeconds
		}
	}
	return resp, nil
}

// acquire takes a worker slot for an ordering, waiting while all are busy.
// It reports false, holding nothing, once Close has begun: an ordering
// that was still waiting then fails rather than runs.
func (s *Service) acquire() bool {
	s.waiting.Add(1)
	defer s.waiting.Add(-1)
	select {
	case s.slots <- struct{}{}:
		if !s.closed.Load() {
			return true
		}
		<-s.slots
	case <-s.quit:
	}
	return false
}

// Stats snapshots the operational counters.
func (s *Service) Stats() Stats {
	cs := s.cache.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Hits:          cs.Hits,
		Misses:        cs.Misses,
		Dedups:        cs.Shared,
		Evictions:     cs.Evictions,
		Jobs:          s.jobsRun,
		Inflight:      cs.Inflight,
		QueueDepth:    int(s.waiting.Load()),
		Entries:       cs.Entries,
		Bytes:         cs.Bytes,
		CapacityBytes: cs.Capacity,
		Workers:       s.cfg.Workers,
	}
	if len(s.orderings) > 0 {
		st.Orderings = make(map[string]uint64, len(s.orderings))
		for _, o := range detmap.Keys(s.orderings) {
			st.Orderings[o] = s.orderings[o]
		}
	}
	if len(s.latency) > 0 {
		st.Latency = make(map[string]LatencyStats, len(s.latency))
		for _, b := range detmap.Keys(s.latency) {
			st.Latency[b] = s.latency[b].snapshot()
		}
	}
	if len(s.modeled) > 0 {
		// Deterministic order: the tally phase order is fixed, but the
		// map is not; sort by name for stable output.
		for _, name := range detmap.Keys(s.modeled) {
			agg := s.modeled[name]
			st.Modeled = append(st.Modeled, PhaseSeconds{Phase: name, CompSeconds: agg.comp, CommSeconds: agg.comm})
		}
	}
	return st
}

// Close stops the service: running orderings finish, waiting and future
// requests fail with ErrClosed. It returns once every worker slot is
// free, so no ordering runs after it. Safe to call more than once.
func (s *Service) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.quit)
	for range s.cfg.Workers {
		s.slots <- struct{}{}
	}
}
