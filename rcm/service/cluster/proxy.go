package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memo"
	"repro/rcm/service"
)

// Replica names one rcmserve instance behind the proxy.
type Replica struct {
	// ID is the replica's stable identity on the hash ring. Use a name
	// that survives restarts and readdressing (a hostname, not a PID):
	// the ring hashes the ID, so renaming a replica moves its keyspace.
	ID string
	// URL is the replica's base URL, e.g. "http://10.0.0.7:8080".
	URL string
}

// Config sizes a Proxy.
type Config struct {
	// Replicas is the fleet. IDs must be unique and non-empty.
	Replicas []Replica
	// VNodes is the virtual-node count per replica on the hash ring
	// (0 means DefaultVNodes).
	VNodes int
	// MaxInflight bounds concurrent upstream requests per replica
	// (0 defaults to 32). When a key's home replica is saturated the
	// proxy spills to the next healthy ring successor with a free slot —
	// bounded-load consistent hashing — before queueing.
	MaxInflight int
	// MaxQueueDepth bounds requests waiting for a slot on one replica
	// once the whole candidate set is saturated (0 defaults to
	// 4 × MaxInflight). Beyond it the proxy sheds with 429 and a
	// Retry-After estimated from the replica's latency EWMA.
	MaxQueueDepth int
	// HotCacheBytes enables a small proxy-side LRU of complete responses
	// for hot keys, short-circuiting the network entirely (0 disables —
	// the default, so replica-level cache behaviour stays observable).
	// It is the byte budget of the cache that also coalesces identical
	// requests, which it does at any budget.
	HotCacheBytes int64
	// MaxUploadBytes bounds one request body (0 defaults to 1 GiB, the
	// service layer's own default).
	MaxUploadBytes int64
	// HealthInterval is the /healthz probe period (0 defaults to 2s;
	// negative disables probing — replicas then stay healthy until a
	// transport error proves otherwise, and an errored replica re-enters
	// rotation after passiveCooldown instead of waiting for a probe).
	HealthInterval time.Duration
	// DefaultSpec must mirror the replicas' own default spec: the proxy
	// overlays it onto each request's options to compute the same cache
	// key the replica will. A mismatch does not corrupt results — it
	// only degrades routing locality (requests land on the wrong shard
	// and warm two caches).
	DefaultSpec service.Spec
	// Client issues upstream requests (nil defaults to a dedicated
	// client with no overall timeout; bound upstream time there if the
	// fleet serves untrusted matrices).
	Client *http.Client
}

// Proxy fronts a fleet of rcmserve replicas: it routes each request to the
// replica owning its content-addressed cache key (so the fleet behaves as
// one sharded cache), coalesces concurrent identical requests into one
// upstream call, spills saturated replicas' traffic along the ring, and
// sheds with 429 + Retry-After once a replica's queue is full. GET
// /v1/stats aggregates the whole fleet; /metrics exports the routing
// counters. Create with New, serve it as an http.Handler, Close to stop
// the health prober.
type Proxy struct {
	cfg      Config
	ring     *Ring
	client   *http.Client
	mux      *http.ServeMux
	replicas map[string]*replicaState
	ids      []string // ring order not needed; sorted member list
	// cache coalesces concurrent identical requests into one upstream
	// call and keeps replica-confirmed responses under HotCacheBytes,
	// keyed by flight key (see flightKeyFor).
	cache *memo.Cache[*upstreamResult]

	spills  atomic.Uint64
	retries atomic.Uint64

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// passiveCooldown is how long a replica that failed with a transport
// error stays out of rotation when health probing is disabled
// (HealthInterval < 0). With no prober to re-admit it, the proxy retries
// it after this window — otherwise one transient error would remove the
// replica for the proxy's lifetime. A var so tests can shrink it.
var passiveCooldown = 5 * time.Second

// replicaState is the proxy's per-replica bookkeeping: the admission
// semaphore, health flag, and counters.
type replicaState struct {
	id      string
	base    string // URL with any trailing slash trimmed
	sem     chan struct{}
	healthy atomic.Bool
	// downUntil is when a transport-errored replica becomes eligible
	// again (unix nanos); consulted only when probing is disabled.
	downUntil atomic.Int64
	waiting   atomic.Int64
	// requests counts upstream calls sent; shed counts 429s issued on
	// this replica's behalf; errs counts transport failures.
	requests atomic.Uint64
	shed     atomic.Uint64
	errs     atomic.Uint64
	ewmaNs   atomic.Int64 // smoothed upstream latency
}

func (rep *replicaState) tryAcquire() bool {
	select {
	case rep.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (rep *replicaState) release() { <-rep.sem }

// observe folds one upstream latency sample into the EWMA (α = 1/4).
func (rep *replicaState) observe(d time.Duration) {
	for {
		old := rep.ewmaNs.Load()
		next := old + (d.Nanoseconds()-old)/4
		if old == 0 {
			next = d.Nanoseconds()
		}
		if rep.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds estimates when a slot should free up: the backlog
// ahead of a new arrival (queued + running + itself) times the smoothed
// per-request latency, divided by the replica's service rate. Clamped to
// [1, 30] so clients neither hammer nor give up.
func (rep *replicaState) retryAfterSeconds(maxInflight int) int {
	ewma := float64(rep.ewmaNs.Load()) / 1e9
	if ewma <= 0 {
		ewma = 0.1
	}
	backlog := float64(rep.waiting.Load() + int64(len(rep.sem)) + 1)
	s := int(math.Ceil(ewma * backlog / float64(maxInflight)))
	if s < 1 {
		s = 1
	}
	if s > 30 {
		s = 30
	}
	return s
}

// upstreamCall is one request to forward, as the coalescing fill captured
// it: the routed key and the request bytes a replica sees, and nothing of
// the client's *http.Request, whose context ends when that client goes.
type upstreamCall struct {
	path, key, contentType, query string
	body                          []byte
}

// upstreamResult is a complete buffered upstream response, replayable to
// any number of coalesced waiters.
type upstreamResult struct {
	status      int
	contentType string
	xcache      string
	key         string
	replica     string
	body        []byte
	// confirmed: the replica answered 200 and echoed the routed key, so
	// the response may be kept for replay (see hotBytes).
	confirmed bool
}

func (u *upstreamResult) bytes() int64 {
	return int64(len(u.body)+len(u.key)+len(u.contentType)+len(u.replica)+len(u.xcache)) + 96
}

// hotBytes is the hot cache's size function: a confirmed response is
// charged its buffered size plus its flight key; any other is not kept.
func hotBytes(flightKey string, res *upstreamResult) int64 {
	if !res.confirmed {
		return -1
	}
	return res.bytes() + int64(len(flightKey))
}

func (u *upstreamResult) write(w http.ResponseWriter, hot, coalesced bool) {
	h := w.Header()
	if u.contentType != "" {
		h.Set("Content-Type", u.contentType)
	}
	switch {
	case hot:
		h.Set("X-Cache", "hit")
		h.Set("X-RCM-Hot", "1")
	case u.xcache != "":
		h.Set("X-Cache", u.xcache)
	}
	if u.key != "" {
		h.Set("X-RCM-Key", u.key)
	}
	h.Set("X-RCM-Replica", u.replica)
	if coalesced {
		h.Set("X-RCM-Coalesced", "1")
	}
	w.WriteHeader(u.status)
	w.Write(u.body)
}

// Routing failure modes, mapped to status codes by writeRouteErr.
var errNoHealthy = errors.New("cluster: no healthy replica")

// shedError carries the Retry-After hint of an admission rejection.
type shedError struct {
	replica    string
	retryAfter int
	reason     string
}

func (e *shedError) Error() string {
	return fmt.Sprintf("cluster: replica %s overloaded (%s); retry in %ds", e.replica, e.reason, e.retryAfter)
}

// New builds the routing tier for the given fleet. It does not contact the
// replicas; the health prober (unless disabled) marks unreachable ones
// unhealthy within one interval.
func New(cfg Config) (*Proxy, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: no replicas configured")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 32
	}
	if cfg.MaxQueueDepth <= 0 {
		cfg.MaxQueueDepth = 4 * cfg.MaxInflight
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 1 << 30
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	p := &Proxy{
		cfg:      cfg,
		client:   cfg.Client,
		replicas: make(map[string]*replicaState, len(cfg.Replicas)),
		cache:    memo.New(cfg.HotCacheBytes, hotBytes),
		stop:     make(chan struct{}),
	}
	if p.client == nil {
		p.client = &http.Client{}
	}
	ids := make([]string, 0, len(cfg.Replicas))
	for _, r := range cfg.Replicas {
		if r.ID == "" || r.URL == "" {
			return nil, fmt.Errorf("cluster: replica needs both an ID and a URL (got ID=%q URL=%q)", r.ID, r.URL)
		}
		if _, dup := p.replicas[r.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica ID %q", r.ID)
		}
		rep := &replicaState{id: r.ID, base: strings.TrimRight(r.URL, "/"), sem: make(chan struct{}, cfg.MaxInflight)}
		rep.healthy.Store(true) // optimistic until a probe or error says otherwise
		p.replicas[r.ID] = rep
		ids = append(ids, r.ID)
	}
	p.ring = NewRing(ids, cfg.VNodes)
	p.ids = p.ring.Members()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/order", func(w http.ResponseWriter, r *http.Request) {
		p.handleProxied(w, r, "/v1/order", p.orderKey)
	})
	mux.HandleFunc("POST /v1/components", func(w http.ResponseWriter, r *http.Request) {
		p.handleProxied(w, r, "/v1/components", p.componentsKey)
	})
	mux.HandleFunc("GET /v1/stats", p.handleStats)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	p.mux = mux

	if cfg.HealthInterval > 0 {
		p.wg.Add(1)
		go p.probeLoop(cfg.HealthInterval)
	}
	return p, nil
}

// ServeHTTP dispatches to the proxy's routes.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.mux.ServeHTTP(w, r) }

// Close stops the health prober. In-flight requests complete.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// Ring exposes the routing ring (for tests and operational tooling).
func (p *Proxy) Ring() *Ring { return p.ring }

type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// orderKey resolves an ordering request's cache key: the X-RCM-Key header
// when the client pre-routed (echoed from a previous response), otherwise
// by decoding the matrix and fingerprinting the overlaid options exactly
// as the replica will.
func (p *Proxy) orderKey(r *http.Request, body []byte) (string, int, error) {
	if k := r.Header.Get("X-RCM-Key"); k != "" {
		return k, 0, nil
	}
	sp, _, err := service.SpecFromQuery(r.URL.Query())
	if err != nil {
		return "", http.StatusBadRequest, err
	}
	a, err := service.DecodeMatrix(r.Header.Get("Content-Type"), body)
	if err != nil {
		if errors.Is(err, service.ErrUnsupportedContentType) {
			return "", http.StatusUnsupportedMediaType, err
		}
		return "", http.StatusBadRequest, err
	}
	key, err := service.OrderKey(a.Digest(), p.cfg.DefaultSpec.Overlay(sp))
	if err != nil {
		return "", http.StatusBadRequest, err
	}
	return key, 0, nil
}

// componentsKey resolves a components request's cache key (the options
// query does not participate; threads only sizes the parallel pass).
func (p *Proxy) componentsKey(r *http.Request, body []byte) (string, int, error) {
	if k := r.Header.Get("X-RCM-Key"); k != "" {
		return k, 0, nil
	}
	a, err := service.DecodeMatrix(r.Header.Get("Content-Type"), body)
	if err != nil {
		if errors.Is(err, service.ErrUnsupportedContentType) {
			return "", http.StatusUnsupportedMediaType, err
		}
		return "", http.StatusBadRequest, err
	}
	return service.ComponentsKey(a.Digest()), 0, nil
}

// flightKeyFor builds the coalescing/hot-cache key: the resolved cache
// key plus a digest of the exact request bytes (content type and body)
// plus the raw query. Binding the flight to the request bytes makes
// replay exactly equivalent to re-issuing the request: two requests share
// a flight or a hot-cache entry only when a replica could not tell them
// apart. The body digest is the poisoning guard — the cache key alone can
// be claimed via the X-RCM-Key header without owning a matching body, and
// keying flights on it would let a forged (key, body) pair serve its
// response to honest requests whose bodies genuinely resolve to that key.
// The query matters because perm/labels trimming shapes the response.
func flightKeyFor(key string, r *http.Request, body []byte) string {
	h := sha256.New()
	io.WriteString(h, r.Header.Get("Content-Type"))
	h.Write([]byte{0})
	h.Write(body)
	var sum [sha256.Size]byte
	return key + "#" + hex.EncodeToString(h.Sum(sum[:0])) + "#" + r.URL.RawQuery
}

// handleProxied is the shared order/components path: key resolution, then
// one cache lookup that answers from the hot cache, joins an identical
// in-flight request, or makes the routed upstream call; then replay.
func (p *Proxy) handleProxied(w http.ResponseWriter, r *http.Request, path string, keyFn func(*http.Request, []byte) (string, int, error)) {
	// The buffer is reused for key computation, the upstream call, and
	// any retry.
	body, status, err := service.ReadBody(w, r, p.cfg.MaxUploadBytes)
	if err != nil {
		writeJSON(w, status, httpError{err.Error()})
		return
	}
	key, status, err := keyFn(r, body)
	if err != nil {
		writeJSON(w, status, httpError{err.Error()})
		return
	}
	c := &upstreamCall{path: path, key: key, contentType: r.Header.Get("Content-Type"), query: r.URL.RawQuery, body: body}
	res, out, err := p.cache.Get(r.Context(), flightKeyFor(key, r, body), func() (*upstreamResult, error) {
		res, err := p.forward(c)
		if err == nil {
			// res.key is the key the replica derived from the body itself
			// (empty if it did not echo one), so a client echoing a stale
			// or wrong X-RCM-Key can misroute its own request (a
			// documented miss) but cannot poison the hot cache for honest
			// clients, and a non-echoing replica is never kept at all.
			res.confirmed = res.status == http.StatusOK && res.key == key
		}
		return res, err
	})
	switch {
	case err == nil:
		res.write(w, out == memo.Hit, out == memo.Shared)
	case r.Context().Err() != nil:
		// The caller went away; the fill carries on for the others.
	default:
		p.writeRouteErr(w, err)
	}
}

func (p *Proxy) writeRouteErr(w http.ResponseWriter, err error) {
	var shed *shedError
	switch {
	case errors.As(err, &shed):
		w.Header().Set("Retry-After", fmt.Sprint(shed.retryAfter))
		writeJSON(w, http.StatusTooManyRequests, httpError{err.Error()})
	case errors.Is(err, errNoHealthy):
		writeJSON(w, http.StatusServiceUnavailable, httpError{err.Error()})
	default:
		writeJSON(w, http.StatusBadGateway, httpError{err.Error()})
	}
}

// markDown takes rep out of rotation after a transport error. With
// probing enabled the prober re-admits it once /healthz answers 200;
// with probing disabled, alive re-admits it after passiveCooldown.
func (p *Proxy) markDown(rep *replicaState) {
	rep.errs.Add(1)
	rep.downUntil.Store(time.Now().Add(passiveCooldown).UnixNano())
	rep.healthy.Store(false)
}

// alive reports whether rep is eligible for routing. When probing is
// disabled there is no prober to recover an errored replica, so alive
// re-admits it once its cooldown has passed (passive recovery — the next
// request to it either succeeds or marks it down for another cooldown).
func (p *Proxy) alive(rep *replicaState) bool {
	if rep.healthy.Load() {
		return true
	}
	if p.cfg.HealthInterval < 0 && time.Now().UnixNano() >= rep.downUntil.Load() {
		rep.healthy.Store(true)
		return true
	}
	return false
}

// aliveIDs returns the eligible replica IDs in member order, skipping
// exclude ("" excludes nothing).
func (p *Proxy) aliveIDs(exclude string) []string {
	alive := make([]string, 0, len(p.ids))
	for _, id := range p.ids {
		if id != exclude && p.alive(p.replicas[id]) {
			alive = append(alive, id)
		}
	}
	return alive
}

// admit picks the replica for key and acquires an inflight slot on it.
// Order: the key's home (ring owner, or the rendezvous choice among the
// living when the owner is down), then the healthy ring successors — the
// bounded-load spill that keeps a saturated shard from serializing the
// whole fleet. When every candidate is saturated the request queues on
// the home replica, bounded by MaxQueueDepth; past that it is shed.
// exclude removes one replica from consideration (the transport-failure
// retry path passes the replica that just failed). Returns the acquired
// replica and whether the request spilled past its home.
func (p *Proxy) admit(key, exclude string) (*replicaState, bool, error) {
	alive := p.aliveIDs(exclude)
	if len(alive) == 0 {
		return nil, false, errNoHealthy
	}
	home := p.ring.Pick(key)
	if home == exclude || !p.alive(p.replicas[home]) {
		home = Rendezvous(alive, key)
	}
	if rep := p.replicas[home]; rep.tryAcquire() {
		rep.requests.Add(1)
		return rep, false, nil
	}
	for _, id := range p.ring.Successors(key, 0) {
		rep := p.replicas[id]
		if id == home || id == exclude || !p.alive(rep) {
			continue
		}
		if rep.tryAcquire() {
			rep.requests.Add(1)
			p.spills.Add(1)
			return rep, true, nil
		}
	}
	// Whole candidate set saturated: wait in the home replica's bounded
	// queue for a slot.
	rep := p.replicas[home]
	if rep.waiting.Add(1) > int64(p.cfg.MaxQueueDepth) {
		rep.waiting.Add(-1)
		rep.shed.Add(1)
		return nil, false, &shedError{replica: home, retryAfter: rep.retryAfterSeconds(p.cfg.MaxInflight), reason: "queue full"}
	}
	defer rep.waiting.Add(-1)
	select {
	case rep.sem <- struct{}{}:
		rep.requests.Add(1)
		return rep, false, nil
	case <-p.stop:
		return nil, false, errNoHealthy
	}
}

// forward admits, calls the chosen replica, and on a transport failure
// marks it unhealthy and retries once through admit with the failed
// replica excluded — so failovers honor the same bounded queue and shed
// accounting as first attempts. HTTP error statuses from a replica are
// not retried — they are deterministic answers, not infrastructure
// faults.
func (p *Proxy) forward(c *upstreamCall) (*upstreamResult, error) {
	rep, _, err := p.admit(c.key, "")
	if err != nil {
		return nil, err
	}
	res, err := func() (*upstreamResult, error) {
		defer rep.release()
		return p.do(rep, c)
	}()
	if err == nil {
		return res, nil
	}
	p.markDown(rep)
	alt, _, err2 := p.admit(c.key, rep.id)
	if err2 != nil {
		if errors.Is(err2, errNoHealthy) {
			return nil, err // the transport error is the better diagnostic
		}
		return nil, err2 // shed: admission's verdict stands for failovers too
	}
	p.retries.Add(1)
	res, err2 = func() (*upstreamResult, error) {
		defer alt.release()
		return p.do(alt, c)
	}()
	if err2 != nil {
		p.markDown(alt)
		return nil, fmt.Errorf("cluster: retry after %v also failed: %w", err, err2)
	}
	return res, nil
}

// do issues one upstream request and buffers the full response. The
// upstream context is detached from every client's: a coalesced flight's
// result is shared, so no one client hanging up may kill it for the
// others (bound total upstream time via Config.Client if needed).
func (p *Proxy) do(rep *replicaState, c *upstreamCall) (*upstreamResult, error) {
	u := rep.base + c.path
	if c.query != "" {
		u += "?" + c.query
	}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, u, bytes.NewReader(c.body))
	if err != nil {
		return nil, fmt.Errorf("cluster: replica %s: %w", rep.id, err)
	}
	if c.contentType != "" {
		req.Header.Set("Content-Type", c.contentType)
	}
	req.Header.Set("X-RCM-Key", c.key)
	start := time.Now()
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: replica %s: %w", rep.id, err)
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: replica %s: reading response: %w", rep.id, err)
	}
	rep.observe(time.Since(start))
	// res.key stays empty when the replica did not echo X-RCM-Key: only a
	// replica-confirmed key may satisfy the hot-cache guard. Backfilling
	// the routed key here would make that guard vacuous against replicas
	// that never echo (version skew, third-party backends).
	return &upstreamResult{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		xcache:      resp.Header.Get("X-Cache"),
		key:         resp.Header.Get("X-RCM-Key"),
		replica:     rep.id,
		body:        rb,
	}, nil
}

// probeLoop polls every replica's /healthz on the configured interval.
// A replica answering 200 is healthy; anything else — including the 503
// a draining replica advertises — takes it out of the routing set until
// it recovers.
func (p *Proxy) probeLoop(interval time.Duration) {
	defer p.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		p.probeOnce(interval)
		select {
		case <-t.C:
		case <-p.stop:
			return
		}
	}
}

func (p *Proxy) probeOnce(interval time.Duration) {
	timeout := interval
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	var wg sync.WaitGroup
	for _, id := range p.ids {
		rep := p.replicas[id]
		wg.Add(1)
		go func(rep *replicaState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base+"/healthz", nil)
			if err != nil {
				rep.healthy.Store(false)
				return
			}
			resp, err := p.client.Do(req)
			if err != nil {
				rep.healthy.Store(false)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rep.healthy.Store(resp.StatusCode == http.StatusOK)
		}(rep)
	}
	wg.Wait()
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(p.aliveIDs("")) == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no healthy replicas")
		return
	}
	fmt.Fprintln(w, "ok")
}
