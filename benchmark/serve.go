package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mmio"
	"repro/internal/spmat"
	"repro/rcm"
	"repro/rcm/service"
	"repro/rcm/service/cluster"
)

// serve-hot traffic shape.
var serveMatrices = []string{"ldoor", "Serena", "Nm7"}

const (
	// keysPerMatrix prewarmed start values per body: 60 hot keys in all.
	keysPerMatrix = 20
	// hitFrac of requests draw a prewarmed key; the rest use a start value
	// never requested before, so they miss every cache.
	hitFrac = 0.9
	// rcmbFrac of bodies are RCMB; the rest are Matrix Market text.
	rcmbFrac = 0.75
	// serveConns caps the client transport's connections to the proxy.
	serveConns = 2
	// serveReplicas is the fleet size; each replica has one worker.
	serveReplicas = 2
	// maxOutstanding bounds phase-B requests in flight; past it the
	// generator waits, and the wait shows as lag.
	maxOutstanding = 256
	// Samples replayed after a traced window, and paired proxy/direct
	// requests for cluster.hop_ms.
	replayHits   = 60
	replayMisses = 20
	hopPairs     = 60
)

// serveMatrix is one request body in both upload formats.
type serveMatrix struct {
	name     string
	m        *rcm.Matrix
	rcmb, mm []byte
	// starts is a seeded permutation of the vertex ids: the first
	// keysPerMatrix are the prewarmed keys, the rest are handed out in
	// order as fresh start values.
	starts []int
}

// request is one generated request; id numbers it within the run.
type request struct {
	id    int
	mat   int
	start int
	mm    bool
	fresh bool
}

// generator is the seeded request stream. It also remembers the cache key
// the fleet answered for each (matrix, start), which the client echoes in
// X-RCM-Key as a pre-routing client would.
type generator struct {
	mu    sync.Mutex
	rng   *rand.Rand
	mats  []*serveMatrix
	fresh []int // per matrix, the index into starts of the next fresh value
	seq   int
	keys  map[[2]int]string
}

func newGenerator(seed int64, mats []*serveMatrix) *generator {
	g := &generator{rng: rand.New(rand.NewPCG(uint64(seed), 2)), mats: mats, fresh: make([]int, len(mats)), keys: map[[2]int]string{}}
	for i := range g.fresh {
		g.fresh[i] = keysPerMatrix
	}
	return g
}

func (g *generator) next() request {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	r := request{id: g.seq, mat: g.rng.IntN(len(g.mats))}
	r.mm = g.rng.Float64() >= rcmbFrac
	sm := g.mats[r.mat]
	if g.rng.Float64() < hitFrac || g.fresh[r.mat] >= len(sm.starts) {
		r.start = sm.starts[g.rng.IntN(keysPerMatrix)]
	} else {
		r.start, r.fresh = sm.starts[g.fresh[r.mat]], true
		g.fresh[r.mat]++
	}
	return r
}

func (g *generator) key(r request) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.keys[[2]int{r.mat, r.start}]
}

func (g *generator) learn(r request, key string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.keys[[2]int{r.mat, r.start}] = key
}

// fleet is the serving tier as deployed: replicas with one worker each
// behind the routing proxy with rcmproxy's defaults, all on loopback.
type fleet struct {
	svcs     []*service.Service
	servers  []*http.Server
	replicas map[string]string // replica ID -> base URL
	proxy    *cluster.Proxy
	upstream *http.Transport
	front    *http.Server
	frontURL string
	client   *http.Client
	wg       sync.WaitGroup
}

func startFleet() (*fleet, error) {
	f := &fleet{replicas: map[string]string{}}
	serve := func(h http.Handler) (*http.Server, string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", fmt.Errorf("listening on loopback: %w", err)
		}
		srv := &http.Server{Handler: h}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			srv.Serve(ln) // returns http.ErrServerClosed on Close
		}()
		return srv, "http://" + ln.Addr().String(), nil
	}
	var reps []cluster.Replica
	for i := 0; i < serveReplicas; i++ {
		svc := service.New(service.Config{Workers: 1})
		f.svcs = append(f.svcs, svc)
		srv, url, err := serve(service.NewHandler(svc))
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		id := "r" + strconv.Itoa(i)
		f.replicas[id] = url
		reps = append(reps, cluster.Replica{ID: id, URL: url})
	}
	// The proxy's upstream client is the default one, on a transport this
	// benchmark owns so it can close the idle connections afterwards.
	f.upstream = http.DefaultTransport.(*http.Transport).Clone()
	p, err := cluster.New(cluster.Config{Replicas: reps, Client: &http.Client{Transport: f.upstream}})
	if err != nil {
		f.close()
		return nil, err
	}
	f.proxy = p
	if f.front, f.frontURL, err = serve(p); err != nil {
		f.close()
		return nil, err
	}
	f.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		},
	}
	return f, nil
}

// close stops every server, the proxy and the services, and waits for the
// serving goroutines to return.
func (f *fleet) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.front != nil {
		f.front.Close()
	}
	if f.proxy != nil {
		f.proxy.Close()
	}
	if f.upstream != nil {
		f.upstream.CloseIdleConnections()
	}
	for _, srv := range f.servers {
		srv.Close()
	}
	for _, svc := range f.svcs {
		svc.Close()
	}
	f.wg.Wait()
}

// reply is one HTTP answer, timed by the caller.
type reply struct {
	status  int
	body    []byte
	key     string
	cache   string
	replica string
}

// post sends one ordering request to base (the proxy or a replica).
func (f *fleet) post(base string, sm *serveMatrix, r request, key string) (reply, error) {
	body, ct := sm.rcmb, service.ContentTypeBinary
	if r.mm {
		body, ct = sm.mm, service.ContentTypeMatrixMarket
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/order?perm=1&start="+strconv.Itoa(r.start), bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", ct)
	if key != "" {
		req.Header.Set("X-RCM-Key", key)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{
		status:  resp.StatusCode,
		body:    data,
		key:     resp.Header.Get("X-RCM-Key"),
		cache:   resp.Header.Get("X-Cache"),
		replica: resp.Header.Get("X-RCM-Replica"),
	}, nil
}

// permHash decodes a response's permutation and hashes it.
func permHash(body []byte, n int) (uint64, error) {
	var resp struct {
		Perm []int `json:"perm"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.Perm) != n || !rcm.IsPermutation(resp.Perm) {
		return 0, errors.New("response permutation is not a permutation of the matrix's vertices")
	}
	return hashPerm(resp.Perm), nil
}

// sample is one request as the load generator saw it.
type sample struct {
	req   request
	due   time.Time // when it was due (open loop) or sent (closed loop)
	lat   time.Duration
	lag   time.Duration
	cache string
	hash  uint64
	err   error
}

// serveRun is one serve-hot run's state.
type serveRun struct {
	mats  []*serveMatrix
	gen   *generator
	fleet *fleet
	refs  map[[2]int]uint64 // (matrix, start) -> reference permutation hash
}

// serveSetup builds the bodies, the oracle for the prewarmed keys, and a
// fleet whose caches hold those keys, then warms every path once more.
func serveSetup(cfg runConfig) (*serveRun, string, error) {
	scale := cfg.scale(serveScale)
	s := &serveRun{refs: map[[2]int]uint64{}}
	var dig inputDigest
	var keysHash uint64
	for i, name := range serveMatrices {
		m, err := suiteMatrix(name, scale, cfg.seed)
		if err != nil {
			return nil, "", err
		}
		img, err := rcmbImage(m)
		if err != nil {
			return nil, "", err
		}
		var text bytes.Buffer
		if err := rcm.WriteMatrixMarket(&text, m, true); err != nil {
			return nil, "", fmt.Errorf("%s: encoding Matrix Market: %w", name, err)
		}
		seed := uint64(matrixSeed(cfg.seed, name))
		sm := &serveMatrix{name: name, m: m, rcmb: img, mm: text.Bytes()}
		sm.starts = rand.New(rand.NewPCG(seed, 1)).Perm(m.N())
		for _, k := range sm.starts[:keysPerMatrix] {
			res, err := rcm.Order(m, rcm.WithStartVertex(k))
			if err != nil {
				return nil, "", fmt.Errorf("%s: reference for start %d: %w", name, k, err)
			}
			h := hashPerm(res.Perm)
			s.refs[[2]int{i, k}] = h
			keysHash = keysHash*1099511628211 ^ uint64(i)<<48 ^ uint64(k)<<20 ^ h
		}
		dig.add([]byte(name), img, sm.mm, []byte(fmt.Sprint(sm.starts[:keysPerMatrix])))
		s.mats = append(s.mats, sm)
	}
	if err := checkPinned(cfg.seed, fmt.Sprintf("serve-hot@%d", scale), keysHash); err != nil {
		return nil, "", err
	}
	// The head of the request stream is part of the input.
	preview := newGenerator(cfg.seed, s.mats)
	for i := 0; i < 200; i++ {
		r := preview.next()
		dig.add([]byte(fmt.Sprint(r.mat, r.start, r.mm)))
	}
	s.gen = newGenerator(cfg.seed, s.mats)

	f, err := startFleet()
	if err != nil {
		return nil, "", err
	}
	s.fleet = f
	// Prewarm every hot key from an RCMB body, then request each once more
	// as Matrix Market text with its key echoed, so both decode paths,
	// the pre-routed proxy path and the connections are warm.
	for _, mm := range []bool{false, true} {
		for i, sm := range s.mats {
			for _, k := range sm.starts[:keysPerMatrix] {
				smp := s.issue(request{mat: i, start: k, mm: mm}, time.Now(), nil)
				if smp.err == nil && smp.hash != s.refs[[2]int{i, k}] {
					smp.err = fmt.Errorf("%s start %d: answer differs from the reference", sm.name, k)
				}
				if smp.err != nil {
					f.close()
					return nil, "", fmt.Errorf("prewarm: %w", smp.err)
				}
			}
		}
	}
	return s, dig.String(), nil
}

// issue sends r through the proxy and checks the answer's shape; the hash
// is compared with the oracle after the window. When tr is set the request
// is recorded as a root span.
func (s *serveRun) issue(r request, due time.Time, tr *tracer) sample {
	smp := sample{req: r, due: due, lag: time.Since(due)}
	sm := s.mats[r.mat]
	rep, err := s.fleet.post(s.fleet.frontURL, sm, r, s.gen.key(r))
	smp.lat = time.Since(due)
	switch {
	case err != nil:
		smp.err = err
	case rep.status != http.StatusOK:
		smp.err = fmt.Errorf("HTTP %d: %s", rep.status, bytes.TrimSpace(rep.body))
	default:
		smp.cache = rep.cache
		smp.hash, smp.err = permHash(rep.body, sm.m.N())
		if smp.err == nil {
			s.gen.learn(r, rep.key)
		}
	}
	if tr != nil {
		start := int64(due.Sub(tr.epoch))
		tr.record(span{Req: r.id, Name: "http.request", Label: sm.name, Start: start, End: start + int64(smp.lat), NNZ: int64(sm.m.NNZ()), Cache: smp.cache})
	}
	return smp
}

// closedLoop is phase A: serveConns clients, each sending its next request
// as soon as the previous one is answered.
func (s *serveRun) closedLoop(d time.Duration) ([]sample, time.Duration) {
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				smp := s.issue(s.gen.next(), time.Now(), nil)
				mu.Lock()
				out = append(out, smp)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// openLoop is phase B: requests due at a fixed rate, each timed from its
// due time, so a stall also delays the requests queued behind it.
func (s *serveRun) openLoop(rate float64, d time.Duration, tr *tracer) []sample {
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxOutstanding)
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	for i := 0; time.Duration(i)*interval < d; i++ {
		due := t0.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		r := s.gen.next()
		wg.Add(1)
		go func() {
			defer wg.Done()
			smp := s.issue(r, due, tr)
			<-sem
			mu.Lock()
			out = append(out, smp)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// verify checks every answer against rcm.Order(m, WithStartVertex(k)),
// computing references for the fresh keys now, after the window. It
// returns the failed samples' count and the first few errors.
func (s *serveRun) verify(samples []sample) (int, []string) {
	failed := 0
	var errs []string
	fail := func(err error) {
		failed++
		if len(errs) < 5 {
			errs = append(errs, err.Error())
		}
	}
	for _, smp := range samples {
		if smp.err != nil {
			fail(smp.err)
			continue
		}
		k := [2]int{smp.req.mat, smp.req.start}
		ref, ok := s.refs[k]
		if !ok {
			res, err := rcm.Order(s.mats[k[0]].m, rcm.WithStartVertex(k[1]))
			if err != nil {
				fail(err)
				continue
			}
			ref = hashPerm(res.Perm)
			s.refs[k] = ref
		}
		if smp.hash != ref {
			fail(fmt.Errorf("%s start %d: served permutation %#x, reference %#x", s.mats[k[0]].name, k[1], smp.hash, ref))
		}
	}
	return failed, errs
}

// fleetCounters sums the replicas' service counters and the proxy's routing
// counters.
type fleetCounters struct {
	hits, misses, dedups, jobs, evictions uint64
	coalesced, hotHits, spills, shed      uint64
}

func (f *fleet) counters() fleetCounters {
	var c fleetCounters
	for _, svc := range f.svcs {
		st := svc.Stats()
		c.hits += st.Hits
		c.misses += st.Misses
		c.dedups += st.Dedups
		c.jobs += st.Jobs
		c.evictions += st.Evictions
	}
	rs := f.proxy.RoutingStats()
	c.coalesced, c.hotHits, c.spills = rs.Coalesced, rs.HotHits, rs.Spills
	for _, id := range sortedKeys(rs.Shed) {
		c.shed += rs.Shed[id]
	}
	return c
}

func runServeHot(cfg runConfig) (*outcome, error) {
	var s *serveRun
	out := &outcome{}
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	for r := 0; r < reps; r++ {
		if s != nil {
			s.fleet.close()
			s = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if s, out.inputDigest, err = serveSetup(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.fleet.close()
	if cfg.trace {
		return s.traced(cfg, out)
	}

	// The probe samples the host all through both phases: each phase-B
	// request is corrected by the samples within a second of it, phase A's
	// throughput and setup by the run's median sample (samples taken while
	// phase A saturates both cores read erratically).
	sm := startSampler(newMemProbe())
	d := cfg.duration()
	phaseA, elapsedA := s.closedLoop(d / 4)
	phaseB := s.openLoop(serveRate, d-d/4, nil)
	sm.close()
	all := append(phaseA, phaseB...)
	out.attempted = len(all)
	out.failed, out.notes = s.verify(all)

	var nnz float64
	okA := 0
	for _, smp := range phaseA {
		if smp.err == nil {
			okA++
			nnz += float64(s.mats[smp.req.mat].m.NNZ())
		}
	}
	raw, lags := phaseLatencies(phaseB, nil)
	lat, _ := phaseLatencies(phaseB, sm)
	out.notes = append(out.notes, phaseBNotes(len(phaseB), quantile(raw, 0.99), quantile(lags, 0.99))...)
	out.probe = sm.median()
	rss := peakRSSMB()
	metrics := func(lat []float64, f float64) metrics {
		return emit(endToEnd, map[string]float64{
			"nnz_per_s":      nnz / elapsedA.Seconds() / f,
			"latency_p50_ms": quantile(lat, 0.50),
			"latency_p95_ms": quantile(lat, 0.95),
			"latency_p99_ms": quantile(lat, 0.99),
			"capacity_rps":   float64(okA) / elapsedA.Seconds() / f,
			"setup_s":        median(setups) * f,
			"peak_rss_mb":    rss,
		})
	}
	out.metrics = metrics(lat, factor(out.probe))
	out.raw = metrics(raw, 1)
	out.correct = out.failed == 0
	return out, nil
}

// phaseLatencies returns the answered requests' latencies, each corrected
// by the probe samples around its due time when sm is set, and the load
// generator's lags, in milliseconds.
func phaseLatencies(samples []sample, sm *sampler) (lat, lags []float64) {
	for _, smp := range samples {
		lags = append(lags, float64(smp.lag)/float64(time.Millisecond))
		if smp.err != nil {
			continue
		}
		l := float64(smp.lat) / float64(time.Millisecond)
		if sm != nil {
			l *= factor(sm.around(smp.due))
		}
		lat = append(lat, l)
	}
	return lat, lags
}

// phaseBNotes reports what makes a phase-B result weaker than it looks.
func phaseBNotes(n int, p99, lagP99 float64) []string {
	var notes []string
	if n < 2000 {
		notes = append(notes, fmt.Sprintf("phase B sent %d requests; p99 wants at least 2000", n))
	}
	if p99 > float64(latencyLimit)/float64(time.Millisecond) {
		notes = append(notes, fmt.Sprintf("phase B p99 %.1f ms is over the %v latency limit", p99, latencyLimit))
	}
	if lagP99 > float64(lagLimit)/float64(time.Millisecond) {
		notes = append(notes, fmt.Sprintf("phase B invalid: load generator lag p99 %.2f ms exceeds %v", lagP99, lagLimit))
	}
	return notes
}

// traced is serve-hot's per-layer run: an untraced open-loop half (the
// overhead baseline), a half that records every request as a root span,
// then, with the fleet idle, replays of sampled requests through the
// service layer's public functions, handler and facade probes, and paired
// proxy/direct requests for the proxy hop.
func (s *serveRun) traced(cfg runConfig, out *outcome) (*outcome, error) {
	probe := service.New(service.Config{Workers: 1})
	defer probe.Close()
	ctx := context.Background()
	for _, sm := range s.mats {
		for _, k := range sm.starts[:keysPerMatrix] {
			if _, err := probe.Order(ctx, sm.m, spec(k)); err != nil {
				return nil, fmt.Errorf("prewarming the probe service: %w", err)
			}
		}
	}

	half := cfg.duration() / 2
	sm := startSampler(newMemProbe())
	before := s.fleet.counters()
	plain := s.openLoop(serveRate, half, nil)
	tr := newTracer()
	traced := s.openLoop(serveRate, half, tr)
	after := s.fleet.counters()
	sm.close()

	all := append(plain, traced...)
	out.attempted = len(all)
	out.failed, out.notes = s.verify(all)
	vals := map[string]float64{}
	plainLat, lags1 := phaseLatencies(plain, nil)
	tracedLat, lags2 := phaseLatencies(traced, nil)
	vals["trace.overhead_frac"] = ratio(median(tracedLat), median(plainLat)) - 1
	vals["loadgen.lag_p99_ms"] = quantile(append(lags1, lags2...), 0.99)
	vals["host.probe_ms"] = float64(sm.median()) / float64(time.Millisecond)

	dh, dm, dd := after.hits-before.hits, after.misses-before.misses, after.dedups-before.dedups
	vals["service.hit_ratio"] = ratio(float64(dh), float64(dh+dm+dd))
	vals["service.jobs"] = float64(after.jobs - before.jobs)
	vals["service.dedups"] = float64(dd)
	vals["service.evictions"] = float64(after.evictions - before.evictions)
	vals["cluster.coalesced"] = float64(after.coalesced - before.coalesced)
	vals["cluster.hot_hits"] = float64(after.hotHits - before.hotHits)
	vals["cluster.spills"] = float64(after.spills - before.spills)
	vals["cluster.shed"] = float64(after.shed - before.shed)

	var levels, sweeps []float64
	hits, misses := 0, 0
	handler := service.NewHandler(probe)
	for _, smp := range traced {
		if smp.err != nil {
			continue
		}
		hit := smp.cache == "hit"
		if (hit && hits >= replayHits) || (!hit && misses >= replayMisses) || (!hit && !smp.req.fresh) {
			continue
		}
		lv, sw, err := s.replay(tr, probe, handler, smp)
		if err != nil {
			out.failed++
			out.notes = append(out.notes, err.Error())
			continue
		}
		if hit {
			hits++
		} else {
			misses++
			levels, sweeps = append(levels, lv), append(sweeps, sw)
		}
	}
	hop, err := s.hop()
	if err != nil {
		return nil, err
	}
	vals["cluster.hop_ms"] = hop

	spans := tr.snapshot()
	self := selfTimes(spans)
	by := func(name, label string) map[int]time.Duration { return layerTimes(spans, self, name, label) }
	realReq, kids := by("http.request", ""), childTimes(spans, "replay")
	var resid []float64
	for _, req := range sortedKeys(kids) {
		if r, ok := realReq[req]; ok {
			resid = append(resid, ratio(math.Abs(kids[req].Seconds()-r.Seconds()), r.Seconds()))
		}
	}
	vals["trace.residual_frac"] = median(resid)

	vals["mmio.decode_ms"] = medianMs(by("mmio.decode", ""))
	vals["mmio.decode_mb_per_s"] = medianMBps(spans, self, "mmio.decode")
	vals["service.decode_rcmb_ms"] = medianMs(by("service.decode", "rcmb"))
	vals["service.decode_mm_ms"] = medianMs(by("service.decode", "mm"))
	vals["spmat.digest_ms"] = medianMs(by("spmat.digest", "mm"))
	vals["service.key_us"] = medianMs(by("service.key", "")) * 1e3
	vals["service.hit_us"] = medianMs(by("service.order", "hit")) * 1e3
	vals["service.miss_ms"] = medianMs(by("service.order", "miss"))
	vals["service.handler_hit_ms"] = medianMs(by("service.handler", "hit"))
	vals["spmat.symcheck_ms"] = medianMs(by("spmat.symcheck", ""))
	vals["spmat.permute_ms"] = medianMs(by("spmat.permute", ""))
	vals["spmat.stats_ms"] = medianMs(by("spmat.stats", ""))
	seqFull, seqSkip := by("core.engine", ""), by("core.traversal", "")
	vals["core.peripheral_ms"] = medianMs(diff(seqFull, seqSkip))
	vals["core.traversal_ms"] = medianMs(seqSkip)
	vals["core.levels"], vals["core.sweeps"] = mean(levels), mean(sweeps)

	out.metrics = emit(perLayer, vals)
	out.spans = spans
	out.correct = out.failed == 0
	return out, nil
}

// spec is the service spec a request with ?start=k resolves to.
func spec(k int) service.Spec { return service.Spec{Start: &k} }

// replay repeats one answered request's replica-side stages through the
// service layer's public functions after the window, as children of a
// "replay" span, and checks that they give the answer the fleet gave. A
// "probe" span then times the RCMB decode, the handler on a recorder (hits)
// and the facade's stages (misses). It returns the miss's BFS level and
// sweep counts.
func (s *serveRun) replay(tr *tracer, probe *service.Service, handler http.Handler, smp sample) (levels, sweeps float64, err error) {
	sm, r := s.mats[smp.req.mat], smp.req
	body, ct, format := sm.rcmb, service.ContentTypeBinary, "rcmb"
	if r.mm {
		body, ct, format = sm.mm, service.ContentTypeMatrixMarket, "mm"
	}
	outcome := "hit"
	if smp.cache != "hit" {
		outcome = "miss"
	}
	req := r.id
	rp := tr.begin("replay", "", 0, req)
	var a *rcm.Matrix
	var digest, key string
	var resp *service.Response
	tr.call("service.decode", format, rp, req, func() { a, err = service.DecodeMatrix(ct, body) })
	if err == nil {
		tr.call("spmat.digest", format, rp, req, func() { digest = a.Digest() })
		tr.call("service.key", "", rp, req, func() { key, err = service.OrderKey(digest, spec(r.start)) })
	}
	if err == nil {
		tr.call("service.order", outcome, rp, req, func() { resp, err = probe.Order(context.Background(), a, spec(r.start)) })
	}
	if err == nil {
		tr.call("service.encode", "", rp, req, func() {
			var data []byte
			data, err = json.Marshal(resp)
			sink += len(data)
		})
	}
	tr.end(rp)
	switch {
	case err != nil:
		return 0, 0, fmt.Errorf("replay of request %d: %w", req, err)
	case resp.Key != key || resp.Cached != (outcome == "hit"):
		return 0, 0, fmt.Errorf("replay of request %d: probe service answered key %q cached=%v, want %q %s", req, resp.Key, resp.Cached, key, outcome)
	case hashPerm(resp.Perm) != smp.hash:
		return 0, 0, fmt.Errorf("replay of request %d: permutation differs from the fleet's answer", req)
	}

	pr := tr.begin("probe", "", 0, req)
	defer tr.end(pr)
	var csr *spmat.CSR
	if r.mm {
		csr, _, err = mmio.Read(bytes.NewReader(body))
	} else {
		id := tr.begin("mmio.decode", "", pr, req)
		csr, _, err = mmio.ReadBinaryBytesDigest(body, 0)
		tr.end(id)
		tr.annotate(id, func(s *span) { s.Bytes = int64(len(body)) })
	}
	if err != nil {
		return 0, 0, fmt.Errorf("probe decode of request %d: %w", req, err)
	}
	if outcome == "hit" {
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, "/v1/order?perm=1&start="+strconv.Itoa(r.start), bytes.NewReader(body))
		hreq.Header.Set("Content-Type", ct)
		tr.call("service.handler", "hit", pr, req, func() { handler.ServeHTTP(rec, hreq) })
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			return 0, 0, fmt.Errorf("handler probe of request %d: HTTP %d, X-Cache %q", req, rec.Code, rec.Header().Get("X-Cache"))
		}
		return 0, 0, nil
	}
	// The miss's facade stages; stats and permute run serially, as the
	// service's default spec leaves threads at 1.
	opt := core.Options{Start: r.start}
	sym := false
	var perm, trav []int
	tr.call("spmat.symcheck", "", pr, req, func() { sym = csr.IsSymmetricPattern() })
	tr.call("core.engine", "", pr, req, func() { perm = core.SequentialOpt(csr, opt).Perm })
	tr.call("core.traversal", "", pr, req, func() {
		trav = core.SequentialOpt(csr, core.Options{Start: perm[len(perm)-1], SkipPeripheral: true}).Perm
	})
	tr.call("spmat.stats", "before", pr, req, func() { stats(csr, 1) })
	var p *spmat.CSR
	tr.call("spmat.permute", "", pr, req, func() {
		if err = spmat.ValidatePerm(perm, csr.N); err == nil {
			p = csr.PermutePar(perm, 1)
		}
	})
	if err != nil || !sym || hashPerm(perm) != smp.hash || hashPerm(trav) != smp.hash {
		return 0, 0, fmt.Errorf("facade probe of request %d does not reproduce the fleet's answer", req)
	}
	tr.call("spmat.stats", "after", pr, req, func() { stats(p, 1) })
	d := core.Distributed(csr, core.DistOptions{Procs: 1, Options: opt})
	return float64(d.Breakdown.TopDownLevels + d.Breakdown.BottomUpLevels), float64(d.Breakdown.PeripheralSweeps), nil
}

// hop measures the proxy's cost on a hit: p50 through the proxy minus p50
// straight to the key's home replica, over paired requests whose order
// alternates.
func (s *serveRun) hop() (float64, error) {
	var viaProxy, direct []time.Duration
	for i := 0; i < hopPairs; i++ {
		sm := s.mats[i%len(s.mats)]
		r := request{mat: i % len(s.mats), start: sm.starts[(i/len(s.mats))%keysPerMatrix]}
		key := s.gen.key(r)
		first, err := s.fleet.post(s.fleet.frontURL, sm, r, key)
		if err != nil || first.status != http.StatusOK {
			return 0, fmt.Errorf("hop probe through the proxy: %v (HTTP %d)", err, first.status)
		}
		home := s.fleet.replicas[first.replica]
		pair := [2]string{s.fleet.frontURL, home}
		if i%2 == 1 {
			pair[0], pair[1] = home, s.fleet.frontURL
		}
		for _, base := range pair {
			start := time.Now()
			rep, err := s.fleet.post(base, sm, r, key)
			el := time.Since(start)
			if err != nil || rep.status != http.StatusOK || rep.cache != "hit" {
				return 0, fmt.Errorf("hop probe to %s: %v (HTTP %d, X-Cache %q)", base, err, rep.status, rep.cache)
			}
			if base == s.fleet.frontURL {
				viaProxy = append(viaProxy, el)
			} else {
				direct = append(direct, el)
			}
		}
	}
	return median(ms(viaProxy)) - median(ms(direct)), nil
}
