package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubReplica is a scriptable fake rcmserve: it answers /v1/order with a
// JSON body naming itself, counts calls, and can block until released —
// enough to test routing, coalescing, spill and shedding without real
// ordering work. The proxy always forwards the resolved cache key in the
// X-RCM-Key request header, which the stub echoes like the real server.
type stubReplica struct {
	id      string
	srv     *httptest.Server
	calls   atomic.Int64
	healthy atomic.Bool
	block   chan struct{} // non-nil: /v1/order waits here before answering
}

func newStubReplica(t *testing.T, id string, block chan struct{}) *stubReplica {
	t.Helper()
	s := &stubReplica{id: id, block: block}
	s.healthy.Store(true)
	mux := http.NewServeMux()
	order := func(w http.ResponseWriter, r *http.Request) {
		s.calls.Add(1)
		if s.block != nil {
			<-s.block
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-Cache", "miss")
		w.Header().Set("X-RCM-Key", r.Header.Get("X-RCM-Key"))
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"servedBy":%q}`, s.id)
	}
	mux.HandleFunc("POST /v1/order", order)
	mux.HandleFunc("POST /v1/components", order)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !s.healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"hits":1,"misses":2,"jobs":2,"workers":1,"latency":{"sequential":{"count":2,"totalSeconds":0.5,"buckets":[{"le":0.1,"count":1}]}}}`)
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

func newTestProxy(t *testing.T, cfg Config, stubs ...*stubReplica) *Proxy {
	t.Helper()
	for _, s := range stubs {
		cfg.Replicas = append(cfg.Replicas, Replica{ID: s.id, URL: s.srv.URL})
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1 // probe only when a test opts in
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// post sends an order request with a pre-resolved key (the X-RCM-Key
// fast path — routing without body decode, exactly what a client that
// saved the key from a previous response does).
func post(t *testing.T, ts *httptest.Server, key string) *http.Response {
	return postBody(t, ts, key, "body")
}

func postBody(t *testing.T, ts *httptest.Server, key, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/order", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-RCM-Key", key)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestProxyRoutesDeterministically checks each key lands on its ring home
// on every request, and that a multi-key workload actually shards.
func TestProxyRoutesDeterministically(t *testing.T) {
	a, b := newStubReplica(t, "a", nil), newStubReplica(t, "b", nil)
	p := newTestProxy(t, Config{}, a, b)
	ts := httptest.NewServer(p)
	defer ts.Close()

	used := map[string]bool{}
	for _, k := range keys(20) {
		want := p.Ring().Pick(k)
		used[want] = true
		for rep := 0; rep < 3; rep++ {
			resp := post(t, ts, k)
			io.Copy(io.Discard, resp.Body)
			if got := resp.Header.Get("X-RCM-Replica"); got != want {
				t.Fatalf("key %.16s... served by %s, want ring home %s", k, got, want)
			}
		}
	}
	if len(used) != 2 {
		t.Errorf("20 keys used %d replicas, want both", len(used))
	}
}

// TestProxyCoalesces fires concurrent identical requests against a
// blocked replica: exactly one upstream call happens, the followers
// replay its bytes with X-RCM-Coalesced set.
func TestProxyCoalesces(t *testing.T) {
	block := make(chan struct{})
	a := newStubReplica(t, "a", block)
	p := newTestProxy(t, Config{}, a)
	ts := httptest.NewServer(p)
	defer ts.Close()

	const n = 8
	var wg sync.WaitGroup
	bodies := make([]string, n)
	coalesced := atomic.Int64{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := post(t, ts, "samekey")
			b, _ := io.ReadAll(resp.Body)
			bodies[i] = string(b)
			if resp.Header.Get("X-RCM-Coalesced") == "1" {
				coalesced.Add(1)
			}
		}(i)
	}
	// Let all requests reach the flight before releasing the stub.
	deadline := time.Now().Add(5 * time.Second)
	for {
		waiting := p.cache.Stats().Inflight == 1
		if waiting && a.calls.Load() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flight never formed")
		}
		time.Sleep(time.Millisecond)
	}
	// The leader holds the flight; followers pile on. Give them a moment
	// to register, then release.
	time.Sleep(50 * time.Millisecond)
	close(block)
	wg.Wait()

	if got := a.calls.Load(); got != 1 {
		t.Errorf("upstream saw %d calls for %d identical requests, want 1", got, n)
	}
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("follower %d got different bytes", i)
		}
	}
	if c := p.RoutingStats().Coalesced; c != n-1 {
		t.Errorf("coalesced counter %d, want %d", c, n-1)
	}
}

// TestProxyLeaderHangUp: a request that hangs up while its upstream call
// waits for a replica slot must not fail the identical requests coalesced
// onto it. With the only slot held by a blocked call, the leader queues, a
// follower joins its flight and the leader cancels; the one upstream call
// then answers the follower, and nothing is shed: a queued wait that ended
// with the leader's context would fail the follower with 429.
func TestProxyLeaderHangUp(t *testing.T) {
	block := make(chan struct{})
	a := newStubReplica(t, "a", block)
	p := newTestProxy(t, Config{MaxInflight: 1}, a)
	leaderGone := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.ServeHTTP(w, r)
		if r.Header.Get("X-Test-Leader") != "" {
			close(leaderGone)
		}
	}))
	defer ts.Close()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				close(block)
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		io.Copy(io.Discard, post(t, ts, "key-running").Body) // holds the slot
	}()
	waitFor("the slot to be taken", func() bool { return a.calls.Load() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		defer wg.Done()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/order", strings.NewReader("body"))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("X-RCM-Key", "key-queued")
		req.Header.Set("X-Test-Leader", "1")
		if resp, err := ts.Client().Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor("the leader to queue", func() bool { return p.replicas["a"].waiting.Load() == 1 })

	followerDone := make(chan *http.Response, 1)
	go func() { followerDone <- post(t, ts, "key-queued") }()
	waitFor("the follower to coalesce", func() bool { return p.RoutingStats().Coalesced == 1 })

	cancel()
	select {
	case <-leaderGone:
	case <-time.After(5 * time.Second):
		close(block)
		t.Fatal("the proxy never saw the leader hang up")
	}
	close(block)
	resp := <-followerDone
	body, _ := io.ReadAll(resp.Body)
	wg.Wait()

	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-RCM-Coalesced") != "1" {
		t.Errorf("follower got HTTP %d, X-RCM-Coalesced=%q (%s); want 200 and 1",
			resp.StatusCode, resp.Header.Get("X-RCM-Coalesced"), strings.TrimSpace(string(body)))
	}
	if n := a.calls.Load(); n != 2 {
		t.Errorf("replica saw %d calls, want 2 (the slot holder and one for the coalesced key)", n)
	}
	if s := p.RoutingStats().Shed["a"]; s != 0 {
		t.Errorf("shed counter %d, want 0", s)
	}
}

// TestProxyCoalesceRequiresIdenticalBody is the coalescing poisoning
// guard: a request claiming key K via X-RCM-Key with an arbitrary body
// must not share its flight with an honest request for K carrying a
// different body — otherwise the honest client would be served the forged
// body's response. Flights are keyed by (key, body digest, query), so the
// two requests here must each reach the upstream.
func TestProxyCoalesceRequiresIdenticalBody(t *testing.T) {
	block := make(chan struct{})
	a := newStubReplica(t, "a", block)
	p := newTestProxy(t, Config{}, a)
	ts := httptest.NewServer(p)
	defer ts.Close()

	var wg sync.WaitGroup
	var forged, honest *http.Response
	wg.Add(1)
	go func() {
		defer wg.Done()
		forged = postBody(t, ts, "samekey", "forged-body")
		io.Copy(io.Discard, forged.Body)
	}()
	// Wait until the forged request holds its flight.
	deadline := time.Now().Add(5 * time.Second)
	for a.calls.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("forged request never reached the replica")
		}
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		honest = postBody(t, ts, "samekey", "honest-body")
		io.Copy(io.Discard, honest.Body)
	}()
	// The honest request must open its own flight (second upstream call)
	// rather than wait on the forged one.
	for a.calls.Load() != 2 {
		if time.Now().After(deadline) {
			close(block)
			t.Fatal("honest request coalesced onto the forged flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
	if forged.Header.Get("X-RCM-Coalesced") == "1" || honest.Header.Get("X-RCM-Coalesced") == "1" {
		t.Error("requests with different bodies marked coalesced")
	}
	if c := p.RoutingStats().Coalesced; c != 0 {
		t.Errorf("coalesced counter %d, want 0", c)
	}
}

// TestProxyHotCacheRequiresEchoedKey drives the proxy against a replica
// that never echoes X-RCM-Key (version skew, third-party backend): with
// no replica-confirmed key the hot-cache guard must fail open to a miss
// rather than backfilling the routed — possibly client-forged — key and
// caching under it.
func TestProxyHotCacheRequiresEchoedKey(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/order", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-Cache", "miss")
		fmt.Fprint(w, `{"servedBy":"a"}`) // no X-RCM-Key echo
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	p, err := New(Config{
		Replicas:       []Replica{{ID: "a", URL: srv.URL}},
		HotCacheBytes:  1 << 20,
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ts := httptest.NewServer(p)
	defer ts.Close()

	post(t, ts, "somekey")
	r2 := post(t, ts, "somekey")
	if calls.Load() != 2 {
		t.Errorf("replica saw %d calls, want 2 (unechoed key must not be hot-cached)", calls.Load())
	}
	if r2.Header.Get("X-RCM-Hot") != "" {
		t.Error("second response served from the hot cache without a replica-confirmed key")
	}
}

// TestProxyPassiveRecovery disables probing and kills the only replica's
// connection once: the transport error takes it out of rotation, but
// after passiveCooldown the proxy must try it again instead of answering
// 503 forever.
func TestProxyPassiveRecovery(t *testing.T) {
	old := passiveCooldown
	passiveCooldown = 500 * time.Millisecond
	defer func() { passiveCooldown = old }()

	var fail atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/order", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if fail.Load() {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close() // transport error for the proxy
			return
		}
		w.Header().Set("X-RCM-Key", r.Header.Get("X-RCM-Key"))
		fmt.Fprint(w, `{"servedBy":"a"}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	p, err := New(Config{Replicas: []Replica{{ID: "a", URL: srv.URL}}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ts := httptest.NewServer(p)
	defer ts.Close()

	fail.Store(true)
	if resp := post(t, ts, "k"); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("transport failure on the only replica: HTTP %d, want 502", resp.StatusCode)
	}
	fail.Store(false)
	if resp := post(t, ts, "k"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("inside the cooldown window: HTTP %d, want 503", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := post(t, ts, "k")
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never re-admitted after cooldown (last HTTP %d)", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !p.RoutingStats().Healthy["a"] {
		t.Error("recovered replica still marked unhealthy")
	}
}

// TestProxyPassesThrough500 drives the proxy against a replica answering
// 500, as rcmserve does when an ordering panics: the status and body reach
// the client as they are, with no retry on another replica and no
// mark-down, because the same input would fail there too — retrying a
// panic would spread it across the fleet.
func TestProxyPassesThrough500(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/order", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"error":"memo: computing k panicked: boom"}`)
	})
	bad := httptest.NewServer(mux)
	defer bad.Close()
	good := newStubReplica(t, "good", nil)
	p, err := New(Config{
		Replicas:       []Replica{{ID: "bad", URL: bad.URL}, {ID: "good", URL: good.srv.URL}},
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ts := httptest.NewServer(p)
	defer ts.Close()

	var k string
	for _, c := range keys(100) {
		if p.Ring().Pick(c) == "bad" {
			k = c
			break
		}
	}
	resp := post(t, ts, k)
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "panicked") {
		t.Errorf("HTTP %d %s, want the replica's 500 passed through", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-RCM-Replica"); got != "bad" {
		t.Errorf("answered by %q, want the home replica", got)
	}
	rs := p.RoutingStats()
	if calls.Load() != 1 || good.calls.Load() != 0 || rs.Retries != 0 {
		t.Errorf("home calls=%d other calls=%d retries=%d, want 1/0/0 (no retry)", calls.Load(), good.calls.Load(), rs.Retries)
	}
	if !rs.Healthy["bad"] || rs.Errors["bad"] != 0 {
		t.Errorf("healthy=%v errors=%d, want a 500 to leave the replica in rotation", rs.Healthy["bad"], rs.Errors["bad"])
	}
}

// TestProxySpillsWhenHomeSaturated occupies a key's home replica and
// sends a second key with the same home: bounded-load routing must serve
// it from the ring successor instead of queueing.
func TestProxySpillsWhenHomeSaturated(t *testing.T) {
	block := make(chan struct{})
	a := newStubReplica(t, "a", block)
	b := newStubReplica(t, "b", nil)
	p := newTestProxy(t, Config{MaxInflight: 1}, a, b)
	ts := httptest.NewServer(p)
	defer ts.Close()

	// Two distinct keys homed on the blocked replica a.
	const home, other = "a", "b"
	var k1, k2 string
	for _, k := range keys(200) {
		if p.Ring().Pick(k) != home {
			continue
		}
		if k1 == "" {
			k1 = k
		} else if k != k1 {
			k2 = k
			break
		}
	}
	if k2 == "" {
		t.Fatal("no two keys homed on a")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := post(t, ts, k1)
		io.Copy(io.Discard, resp.Body)
	}()
	// Wait until k1 holds the home slot.
	deadline := time.Now().Add(5 * time.Second)
	for p.replicas[home].requests.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached home replica")
		}
		time.Sleep(time.Millisecond)
	}

	resp := post(t, ts, k2)
	io.Copy(io.Discard, resp.Body)
	if got := resp.Header.Get("X-RCM-Replica"); got != other {
		t.Errorf("saturated home %s: request served by %s, want spill to %s", home, got, other)
	}
	if s := p.RoutingStats().Spills; s != 1 {
		t.Errorf("spill counter %d, want 1", s)
	}
	close(block)
	wg.Wait()
}

// TestProxySheds fills the only replica's slot and queue, then checks the
// overflow request is refused with 429 and a Retry-After hint rather
// than queued without bound.
func TestProxySheds(t *testing.T) {
	block := make(chan struct{})
	a := newStubReplica(t, "a", block)
	p := newTestProxy(t, Config{MaxInflight: 1, MaxQueueDepth: 1}, a)
	ts := httptest.NewServer(p)
	defer ts.Close()

	var wg sync.WaitGroup
	launch := func(key string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := post(t, ts, key)
			io.Copy(io.Discard, resp.Body)
		}()
	}
	launch("key-running") // occupies the slot
	deadline := time.Now().Add(5 * time.Second)
	for a.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never started")
		}
		time.Sleep(time.Millisecond)
	}
	launch("key-queued") // waits in the bounded queue
	for p.replicas["a"].waiting.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp := post(t, ts, "key-shed")
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request got HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 without a usable Retry-After (%q)", ra)
	}
	if s := p.RoutingStats().Shed["a"]; s != 1 {
		t.Errorf("shed counter %d, want 1", s)
	}
	close(block)
	wg.Wait()
}

// TestProxyFailover kills a replica: the transport error marks it
// unhealthy, the request retries on a survivor, and subsequent requests
// for its keys route via rendezvous without touching other keys' homes.
func TestProxyFailover(t *testing.T) {
	a, b := newStubReplica(t, "a", nil), newStubReplica(t, "b", nil)
	p := newTestProxy(t, Config{}, a, b)
	ts := httptest.NewServer(p)
	defer ts.Close()

	// A key homed on a.
	var kA string
	for _, k := range keys(100) {
		if p.Ring().Pick(k) == "a" {
			kA = k
			break
		}
	}
	a.srv.Close() // replica dies

	resp := post(t, ts, kA)
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request during replica death: HTTP %d, want 200 via failover", resp.StatusCode)
	}
	if got := resp.Header.Get("X-RCM-Replica"); got != "b" {
		t.Errorf("failover served by %q, want b", got)
	}
	rs := p.RoutingStats()
	if rs.Retries != 1 || rs.Healthy["a"] {
		t.Errorf("after failover: retries=%d healthy[a]=%v, want 1/false", rs.Retries, rs.Healthy["a"])
	}

	// Now that a is marked down, the same key routes straight to b.
	resp2 := post(t, ts, kA)
	io.Copy(io.Discard, resp2.Body)
	if got := resp2.Header.Get("X-RCM-Replica"); got != "b" {
		t.Errorf("post-failover routing went to %q, want b", got)
	}
}

// TestProxyHealthProbe runs the prober against a draining replica (503 on
// /healthz, like rcmserve under SIGTERM) and checks its keys re-route
// while it drains and come home when it recovers.
func TestProxyHealthProbe(t *testing.T) {
	a, b := newStubReplica(t, "a", nil), newStubReplica(t, "b", nil)
	p := newTestProxy(t, Config{HealthInterval: 20 * time.Millisecond}, a, b)
	ts := httptest.NewServer(p)
	defer ts.Close()

	var kA string
	for _, k := range keys(100) {
		if p.Ring().Pick(k) == "a" {
			kA = k
			break
		}
	}
	waitHealthy := func(id string, want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for p.RoutingStats().Healthy[id] != want {
			if time.Now().After(deadline) {
				t.Fatalf("prober never set healthy[%s]=%v", id, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	a.healthy.Store(false) // drain
	waitHealthy("a", false)
	resp := post(t, ts, kA)
	io.Copy(io.Discard, resp.Body)
	if got := resp.Header.Get("X-RCM-Replica"); got != "b" {
		t.Errorf("draining replica still served its key (replica %q)", got)
	}

	a.healthy.Store(true) // recover
	waitHealthy("a", true)
	resp2 := post(t, ts, kA)
	io.Copy(io.Discard, resp2.Body)
	if got := resp2.Header.Get("X-RCM-Replica"); got != "a" {
		t.Errorf("recovered replica did not get its key back (replica %q)", got)
	}
}

// TestProxyHotCache enables the proxy-side LRU: the second identical
// request never reaches a replica.
func TestProxyHotCache(t *testing.T) {
	a := newStubReplica(t, "a", nil)
	p := newTestProxy(t, Config{HotCacheBytes: 1 << 20}, a)
	ts := httptest.NewServer(p)
	defer ts.Close()

	r1 := post(t, ts, "hotkey")
	b1, _ := io.ReadAll(r1.Body)
	r2 := post(t, ts, "hotkey")
	b2, _ := io.ReadAll(r2.Body)
	if a.calls.Load() != 1 {
		t.Errorf("replica saw %d calls, want 1 (second should hit the hot cache)", a.calls.Load())
	}
	if r2.Header.Get("X-RCM-Hot") != "1" || r2.Header.Get("X-Cache") != "hit" {
		t.Errorf("hot response headers: X-RCM-Hot=%q X-Cache=%q", r2.Header.Get("X-RCM-Hot"), r2.Header.Get("X-Cache"))
	}
	if string(b1) != string(b2) {
		t.Error("hot cache replayed different bytes")
	}
	if h := p.RoutingStats().HotHits; h != 1 {
		t.Errorf("hot hit counter %d, want 1", h)
	}
	// The kept entry is charged its buffered response plus its flight key.
	req := httptest.NewRequest(http.MethodPost, "/v1/order", nil)
	fk := flightKeyFor("hotkey", req, []byte("body"))
	want := int64(len(b1)+len("hotkey")+len("application/json")+len("a")+len("miss")) + 96 + int64(len(fk))
	if got := p.cache.Stats().Bytes; got != want {
		t.Errorf("hot cache holds %d bytes, want %d", got, want)
	}
}

// TestProxyHotCacheRejectsUnconfirmedKey checks the poisoning guard: the
// replica derives the authoritative key from the body, and when its
// response key disagrees with the routed (client-supplied) key the proxy
// must not hot-cache the response — a client echoing a wrong X-RCM-Key
// may misroute itself, but cannot plant its response bytes under a key
// honest clients will later present.
func TestProxyHotCacheRejectsUnconfirmedKey(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/order", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-Cache", "miss")
		w.Header().Set("X-RCM-Key", "the-real-key") // not what the client claimed
		fmt.Fprint(w, `{"servedBy":"a"}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	p, err := New(Config{
		Replicas:       []Replica{{ID: "a", URL: srv.URL}},
		HotCacheBytes:  1 << 20,
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ts := httptest.NewServer(p)
	defer ts.Close()

	post(t, ts, "claimed-key")
	r2 := post(t, ts, "claimed-key")
	if calls.Load() != 2 {
		t.Errorf("replica saw %d calls, want 2 (unconfirmed key must not be hot-cached)", calls.Load())
	}
	if r2.Header.Get("X-RCM-Hot") != "" {
		t.Error("second response served from the hot cache despite the key mismatch")
	}
	if h := p.RoutingStats().HotHits; h != 0 {
		t.Errorf("hot hit counter %d, want 0", h)
	}
}

// TestProxyStatsAggregation checks GET /v1/stats sums the fleet: two
// stubs each reporting hits=1 misses=2 jobs=2 yield an aggregate of
// 2/4/4 with the latency histograms merged.
func TestProxyStatsAggregation(t *testing.T) {
	a, b := newStubReplica(t, "a", nil), newStubReplica(t, "b", nil)
	p := newTestProxy(t, Config{}, a, b)

	fs := p.FleetStats(2 * time.Second)
	if len(fs.Replicas) != 2 {
		t.Fatalf("fleet stats cover %d replicas, want 2", len(fs.Replicas))
	}
	agg := fs.Aggregate
	if agg.Hits != 2 || agg.Misses != 4 || agg.Jobs != 4 || agg.Workers != 2 {
		t.Errorf("aggregate hits=%d misses=%d jobs=%d workers=%d, want 2/4/4/2", agg.Hits, agg.Misses, agg.Jobs, agg.Workers)
	}
	seq := agg.Latency["sequential"]
	if seq.Count != 4 || seq.TotalSeconds != 1.0 {
		t.Errorf("merged latency count=%d sum=%g, want 4/1.0", seq.Count, seq.TotalSeconds)
	}
	if len(seq.Buckets) != 1 || seq.Buckets[0].Count != 2 {
		t.Errorf("merged buckets %+v, want one bucket with count 2", seq.Buckets)
	}
}

// TestProxyBodyCap: the proxy reads bodies through the replicas' shared
// reader — 413 for a declared or actual length over the cap, and for a
// 10-byte body that declares just under the default 1 GiB cap, the 400 of
// an undecodable matrix rather than a gigabyte buffer.
func TestProxyBodyCap(t *testing.T) {
	stub := newStubReplica(t, "r1", nil)
	for _, c := range []struct {
		name     string
		max      int64
		body     string
		declared int64
		status   int
	}{
		{"declared over cap", 10, "0123456789a", 11, http.StatusRequestEntityTooLarge},
		{"chunked over cap", 10, "0123456789a", -1, http.StatusRequestEntityTooLarge},
		{"forged length", 0, "0123456789", 1<<30 - 1, http.StatusBadRequest},
	} {
		p := newTestProxy(t, Config{MaxUploadBytes: c.max}, stub)
		r := httptest.NewRequest(http.MethodPost, "/v1/order", io.NopCloser(strings.NewReader(c.body)))
		r.Header.Set("Content-Type", "application/x-rcm-binary")
		r.ContentLength = c.declared
		w := httptest.NewRecorder()
		p.ServeHTTP(w, r)
		if w.Code != c.status {
			t.Errorf("%s: HTTP %d (%s), want %d", c.name, w.Code, strings.TrimSpace(w.Body.String()), c.status)
		}
	}
	if n := stub.calls.Load(); n != 0 {
		t.Errorf("%d requests reached the replica, want 0", n)
	}
}
