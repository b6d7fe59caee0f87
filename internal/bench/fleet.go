package bench

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/rcm"
	"repro/rcm/service"
	"repro/rcm/service/cluster"
)

// FleetRow is one point of the fleet scaling experiment: a replica count
// and target hit ratio against the sustained QPS the routed fleet
// achieved.
type FleetRow struct {
	// Replicas is the rcmserve replica count behind the proxy.
	Replicas int
	// TargetHitRatio is the repeated fraction of the request stream.
	TargetHitRatio float64
	// Requests and Clients describe the load.
	Requests, Clients int
	// QPS is requests over wall-clock time through the proxy.
	QPS float64
	// Speedup is QPS over the 1-replica QPS at the same hit ratio.
	Speedup float64
	// Hits, Dedups and Jobs sum the replica-level cache outcomes;
	// Coalesced, HotHits and Spills are the proxy's routing counters.
	Hits, Dedups, Jobs         uint64
	Coalesced, HotHits, Spills uint64
	// AchievedHitRatio counts every request the fleet absorbed without
	// recomputing — replica cache hits and dedups plus proxy coalesces
	// and hot-cache hits — over all requests.
	AchievedHitRatio float64
}

// fleetParams sizes one fleet sweep; RunFleet and BenchmarkFleet share
// the machinery at different scales.
type fleetParams struct {
	replicaCounts []int
	hitRatios     []float64
	// missTarget is the distinct-key count per cell — every cell does the
	// same amount of modelled miss work, so QPS across replica counts
	// isolates the routing tier's scaling.
	missTarget int
	clients    int
	// missCost is the modelled per-miss service time, serialized per
	// replica (a replica is one modelled host; see modelMissCost).
	missCost time.Duration
}

func defaultFleetParams() fleetParams {
	return fleetParams{
		replicaCounts: []int{1, 2, 4, 8},
		hitRatios:     []float64{0, 0.5, 0.9},
		missTarget:    48,
		clients:       16,
		missCost:      40 * time.Millisecond,
	}
}

// modelMissCost wraps a replica handler so every cache miss costs a fixed
// modelled service time, serialized per replica. This is the serving-tier
// analog of the repo's modelled-BSP convention: the harness runs on one
// machine, so real CPU-bound misses on N in-process replicas would share
// one core and show no scaling — but a real fleet is N hosts, and what
// the experiment measures is the routing tier (sharding, spill,
// coalescing), not the kernel. Orderings still execute for real, so
// responses are byte-exact; only the miss's wall-clock cost is modelled.
// Hits and coalesced requests pass through untouched — their near-zero
// cost is precisely the point of the sharded cache.
func modelMissCost(next http.Handler, cost time.Duration) http.Handler {
	core := make(chan struct{}, 1) // the replica's one modelled core
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&missCostWriter{ResponseWriter: w, core: core, cost: cost}, r)
	})
}

type missCostWriter struct {
	http.ResponseWriter
	core        chan struct{}
	cost        time.Duration
	headersDone bool
}

func (m *missCostWriter) WriteHeader(code int) {
	if !m.headersDone {
		m.headersDone = true
		if code == http.StatusOK && m.Header().Get("X-Cache") == "miss" {
			m.core <- struct{}{}
			time.Sleep(m.cost)
			<-m.core
		}
	}
	m.ResponseWriter.WriteHeader(code)
}

func (m *missCostWriter) Write(b []byte) (int, error) {
	if !m.headersDone {
		m.WriteHeader(http.StatusOK)
	}
	return m.ResponseWriter.Write(b)
}

// runFleetPoint boots an in-process fleet — n replicas, each a real
// Service behind the real HTTP handler plus the modelled miss cost —
// fronts it with the cluster proxy, and drives the two-tier request mix.
func runFleetPoint(body []byte, n int, ratio float64, p fleetParams) FleetRow {
	services := make([]*service.Service, n)
	replicas := make([]cluster.Replica, n)
	for i := 0; i < n; i++ {
		services[i] = service.New(service.Config{Workers: 2})
		ts := httptest.NewServer(modelMissCost(service.NewHandler(services[i]), p.missCost))
		defer ts.Close()
		replicas[i] = cluster.Replica{ID: fmt.Sprintf("r%d", i), URL: ts.URL}
	}
	defer func() {
		for _, svc := range services {
			svc.Close()
		}
	}()
	// MaxInflight 2 engages bounded-load spill: hash assignment alone
	// leaves the busiest replica with ~2x its fair share of a small
	// distinct-key set, which would cap speedup well under N; spilling a
	// saturated home's overflow along the ring rebalances the miss work.
	// The hot cache is the tier's peer-fill mechanism: a result computed
	// on a spill target is replayed by the proxy, so repeats never
	// recompute on the (cold) home replica.
	proxy, err := cluster.New(cluster.Config{
		Replicas:       replicas,
		MaxInflight:    2,
		MaxQueueDepth:  4 * p.clients,
		HotCacheBytes:  8 << 20,
		HealthInterval: -1,
	})
	if err != nil {
		panic(err)
	}
	defer proxy.Close()
	front := httptest.NewServer(proxy)
	defer front.Close()

	requests := int(float64(p.missTarget) / (1 - ratio))
	distinct := p.missTarget
	client := front.Client()

	var wg sync.WaitGroup
	reqs := make(chan int)
	start := time.Now()
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range reqs {
				// Cycling the pinned start vertex through `distinct`
				// values gives the stream exactly `distinct` cache keys,
				// spread over the ring.
				url := fmt.Sprintf("%s/v1/order?backend=sequential&perm=0&start=%d", front.URL, i%distinct)
				resp, err := client.Post(url, service.ContentTypeBinary, bytes.NewReader(body))
				if err != nil {
					panic(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					panic(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					panic(fmt.Sprintf("fleet bench: HTTP %d", resp.StatusCode))
				}
			}
		}()
	}
	for i := 0; i < requests; i++ {
		reqs <- i
	}
	close(reqs)
	wg.Wait()
	elapsed := time.Since(start)

	row := FleetRow{
		Replicas:       n,
		TargetHitRatio: ratio,
		Requests:       requests,
		Clients:        p.clients,
		QPS:            float64(requests) / elapsed.Seconds(),
	}
	for _, svc := range services {
		st := svc.Stats()
		row.Hits += st.Hits
		row.Dedups += st.Dedups
		row.Jobs += st.Jobs
	}
	rs := proxy.RoutingStats()
	row.Coalesced = rs.Coalesced
	row.HotHits = rs.HotHits
	row.Spills = rs.Spills
	row.AchievedHitRatio = float64(row.Hits+row.Dedups+row.Coalesced+row.HotHits) / float64(requests)
	return row
}

// RunFleet measures the sharded fleet end to end: N in-process rcmserve
// replicas behind the consistent-hash proxy, swept over replica count and
// cache hit ratio. Every cell carries the same modelled miss work, so QPS
// scaling with N is the routing tier's doing: key-sharded caching keeps
// the aggregate hit ratio at single-node parity while misses spread over
// the replicas (bounded-load spill covering for hash imbalance), and at
// high hit ratios the proxy's coalescing and hot-key cache absorb the
// fan-in before it reaches a replica.
func RunFleet(cfg Config) []FleetRow {
	return runFleet(cfg, defaultFleetParams())
}

func runFleet(cfg Config, p fleetParams) []FleetRow {
	out := cfg.out()
	a := rcm.Grid2D(30, 20)
	var bin bytes.Buffer
	if err := rcm.WriteBinary(&bin, a); err != nil {
		panic(err)
	}
	body := bin.Bytes()

	fmt.Fprintf(out, "Fleet throughput: QPS vs replica count (grid %d vertices, %d distinct keys/cell, %d clients, %v modelled miss cost)\n",
		a.N(), p.missTarget, p.clients, p.missCost)
	fmt.Fprintf(out, "%-9s %-7s %9s %9s %8s %6s %6s %7s %6s %7s %9s\n",
		"replicas", "target", "requests", "qps", "speedup", "hits", "dedups", "coalesc", "hot", "spills", "achieved")

	rows := make([]FleetRow, 0, len(p.replicaCounts)*len(p.hitRatios))
	for _, ratio := range p.hitRatios {
		var base float64
		for _, n := range p.replicaCounts {
			row := runFleetPoint(body, n, ratio, p)
			if n == p.replicaCounts[0] {
				base = row.QPS
			}
			row.Speedup = row.QPS / base
			rows = append(rows, row)
			fmt.Fprintf(out, "%-9d %-7.2f %9d %9.0f %7.2fx %6d %6d %7d %6d %7d %9.2f\n",
				row.Replicas, row.TargetHitRatio, row.Requests, row.QPS, row.Speedup,
				row.Hits, row.Dedups, row.Coalesced, row.HotHits, row.Spills, row.AchievedHitRatio)
		}
	}
	fmt.Fprintln(out, "QPS should scale with replicas at every ratio (miss work shards), with the achieved hit ratio matching a single node's.")
	return rows
}

// WriteFleetCSV writes the fleet rows in machine-readable form.
func WriteFleetCSV(w io.Writer, rows []FleetRow) error {
	if _, err := fmt.Fprintln(w, "replicas,target_hit_ratio,requests,clients,qps,speedup,hits,dedups,jobs,coalesced,hot_hits,spills,achieved_hit_ratio"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%d,%.2f,%d,%d,%.1f,%.2f,%d,%d,%d,%d,%d,%d,%.3f\n",
			r.Replicas, r.TargetHitRatio, r.Requests, r.Clients, r.QPS, r.Speedup,
			r.Hits, r.Dedups, r.Jobs, r.Coalesced, r.HotHits, r.Spills, r.AchievedHitRatio); err != nil {
			return err
		}
	}
	return nil
}
