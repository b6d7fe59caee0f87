package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/detmap"
	"repro/rcm/service"
)

// RoutingStats is the proxy's own view of the fleet: where requests went
// and what the admission layer did to them. The maps are keyed by replica
// ID.
type RoutingStats struct {
	// Requests counts upstream calls sent to each replica (coalesced
	// followers and hot-cache hits never reach a replica and are counted
	// separately).
	Requests map[string]uint64 `json:"requests"`
	// Shed counts 429s issued on each replica's behalf; Errors counts
	// transport failures observed against it.
	Shed   map[string]uint64 `json:"shed"`
	Errors map[string]uint64 `json:"errors"`
	// Healthy is each replica's current routing eligibility.
	Healthy map[string]bool `json:"healthy"`
	// Spills counts requests served by a ring successor because the home
	// replica was saturated; Retries counts transport-failure failovers.
	Spills  uint64 `json:"spills"`
	Retries uint64 `json:"retries"`
	// Coalesced counts requests that replayed an in-flight identical
	// request's response; HotHits counts proxy-cache answers.
	Coalesced uint64 `json:"coalesced"`
	HotHits   uint64 `json:"hotHits"`
	// IndexStats describes the proxy's body index, which only keyless
	// requests consult: how they learned their pattern digest, and the
	// bodies it holds.
	service.IndexStats
}

// RoutingStats snapshots the proxy's routing counters.
func (p *Proxy) RoutingStats() RoutingStats {
	cs := p.cache.Stats()
	rs := RoutingStats{
		Requests:   make(map[string]uint64, len(p.ids)),
		Shed:       make(map[string]uint64, len(p.ids)),
		Errors:     make(map[string]uint64, len(p.ids)),
		Healthy:    make(map[string]bool, len(p.ids)),
		Spills:     p.spills.Load(),
		Retries:    p.retries.Load(),
		Coalesced:  cs.Shared,
		HotHits:    cs.Hits,
		IndexStats: p.index.Stats(),
	}
	for _, id := range p.ids {
		rep := p.replicas[id]
		rs.Requests[id] = rep.requests.Load()
		rs.Shed[id] = rep.shed.Load()
		rs.Errors[id] = rep.errs.Load()
		rs.Healthy[id] = rep.healthy.Load()
	}
	return rs
}

// ReplicaStats is one replica's slice of the fleet stats response.
type ReplicaStats struct {
	ID      string         `json:"id"`
	URL     string         `json:"url"`
	Healthy bool           `json:"healthy"`
	Error   string         `json:"error,omitempty"`
	Stats   *service.Stats `json:"stats,omitempty"`
}

// FleetStats is the GET /v1/stats response: each replica's own snapshot,
// the fleet-wide aggregate (counters summed, histograms and modelled
// phase breakdowns merged), and the proxy's routing counters.
type FleetStats struct {
	Replicas  []ReplicaStats `json:"replicas"`
	Aggregate service.Stats  `json:"aggregate"`
	Routing   RoutingStats   `json:"routing"`
}

// FleetStats polls every replica's /v1/stats (concurrently, bounded by
// timeout) and aggregates. Unreachable replicas appear with an error and
// contribute nothing to the aggregate.
func (p *Proxy) FleetStats(timeout time.Duration) FleetStats {
	out := FleetStats{Replicas: make([]ReplicaStats, len(p.ids)), Routing: p.RoutingStats()}
	done := make(chan struct{})
	for i, id := range p.ids {
		go func(i int, rep *replicaState) {
			defer func() { done <- struct{}{} }()
			rs := ReplicaStats{ID: rep.id, URL: rep.base, Healthy: rep.healthy.Load()}
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			st, err := fetchStats(ctx, p.client, rep.base)
			if err != nil {
				rs.Error = err.Error()
			} else {
				rs.Stats = st
			}
			out.Replicas[i] = rs
		}(i, p.replicas[id])
	}
	for range p.ids {
		<-done
	}
	for _, rs := range out.Replicas {
		if rs.Stats != nil {
			mergeStats(&out.Aggregate, rs.Stats)
		}
	}
	return out
}

func fetchStats(ctx context.Context, client *http.Client, base string) (*service.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("stats: HTTP %d", resp.StatusCode)
	}
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// mergeStats folds one replica's snapshot into the fleet aggregate:
// counters and gauges sum; latency histograms merge per backend by bucket
// bound; modelled phase breakdowns merge by phase name.
func mergeStats(agg *service.Stats, st *service.Stats) {
	agg.Hits += st.Hits
	agg.Misses += st.Misses
	agg.Dedups += st.Dedups
	agg.Evictions += st.Evictions
	agg.Jobs += st.Jobs
	agg.Inflight += st.Inflight
	agg.QueueDepth += st.QueueDepth
	agg.Entries += st.Entries
	agg.Bytes += st.Bytes
	agg.CapacityBytes += st.CapacityBytes
	agg.Workers += st.Workers
	agg.IndexHits += st.IndexHits
	agg.IndexMisses += st.IndexMisses
	agg.IndexEntries += st.IndexEntries
	for _, o := range detmap.Keys(st.Orderings) {
		if agg.Orderings == nil {
			agg.Orderings = make(map[string]uint64)
		}
		agg.Orderings[o] += st.Orderings[o]
	}
	for _, backend := range detmap.Keys(st.Latency) {
		if agg.Latency == nil {
			agg.Latency = make(map[string]service.LatencyStats)
		}
		agg.Latency[backend] = mergeLatency(agg.Latency[backend], st.Latency[backend])
	}
	if len(st.Modeled) > 0 {
		byPhase := make(map[string]*service.PhaseSeconds, len(agg.Modeled))
		for i := range agg.Modeled {
			byPhase[agg.Modeled[i].Phase] = &agg.Modeled[i]
		}
		for _, ph := range st.Modeled {
			if have, ok := byPhase[ph.Phase]; ok {
				have.CompSeconds += ph.CompSeconds
				have.CommSeconds += ph.CommSeconds
			} else {
				agg.Modeled = append(agg.Modeled, ph)
				byPhase[ph.Phase] = &agg.Modeled[len(agg.Modeled)-1]
			}
		}
		sort.Slice(agg.Modeled, func(i, j int) bool { return agg.Modeled[i].Phase < agg.Modeled[j].Phase })
	}
}

// mergeLatency sums two histograms bucket-by-bucket. All replicas share
// the service layer's fixed bucket bounds, but the merge keys by bound so
// a version-skewed replica degrades to extra buckets, not silent
// miscounts.
func mergeLatency(a, b service.LatencyStats) service.LatencyStats {
	out := service.LatencyStats{Count: a.Count + b.Count, TotalSeconds: a.TotalSeconds + b.TotalSeconds}
	byLe := make(map[float64]uint64, len(a.Buckets)+len(b.Buckets))
	for _, bk := range a.Buckets {
		byLe[bk.LeSeconds] += bk.Count
	}
	for _, bk := range b.Buckets {
		byLe[bk.LeSeconds] += bk.Count
	}
	for _, le := range detmap.Keys(byLe) {
		out.Buckets = append(out.Buckets, service.LatencyBucket{LeSeconds: le, Count: byLe[le]})
	}
	return out
}

func (p *Proxy) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, p.FleetStats(5*time.Second))
}

// handleMetrics exports the routing counters in the Prometheus text
// format. Replica-level service metrics are scraped from the replicas
// directly; this endpoint is the proxy's own story — where traffic went
// and what admission control did.
func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rs := p.RoutingStats()
	perReplica := func(name, help string, vals map[string]uint64, typ string) {
		fmt.Fprintf(w, "# HELP rcm_proxy_%s %s\n# TYPE rcm_proxy_%s %s\n", name, help, name, typ)
		for _, id := range p.ids {
			fmt.Fprintf(w, "rcm_proxy_%s{replica=%q} %d\n", name, id, vals[id])
		}
	}
	perReplica("requests_total", "upstream calls per replica", rs.Requests, "counter")
	perReplica("shed_total", "requests shed with 429 per replica", rs.Shed, "counter")
	perReplica("replica_errors_total", "transport failures per replica", rs.Errors, "counter")

	fmt.Fprintf(w, "# HELP rcm_proxy_replica_healthy replica routing eligibility (1 healthy)\n# TYPE rcm_proxy_replica_healthy gauge\n")
	for _, id := range p.ids {
		v := 0
		if rs.Healthy[id] {
			v = 1
		}
		fmt.Fprintf(w, "rcm_proxy_replica_healthy{replica=%q} %d\n", id, v)
	}
	fmt.Fprintf(w, "# HELP rcm_proxy_inflight upstream requests currently running per replica\n# TYPE rcm_proxy_inflight gauge\n")
	for _, id := range p.ids {
		rep := p.replicas[id]
		fmt.Fprintf(w, "rcm_proxy_inflight{replica=%q} %d\n", id, len(rep.sem))
	}
	fmt.Fprintf(w, "# HELP rcm_proxy_upstream_latency_seconds smoothed upstream latency per replica\n# TYPE rcm_proxy_upstream_latency_seconds gauge\n")
	for _, id := range p.ids {
		rep := p.replicas[id]
		fmt.Fprintf(w, "rcm_proxy_upstream_latency_seconds{replica=%q} %g\n", id, float64(rep.ewmaNs.Load())/1e9)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP rcm_proxy_%s %s\n# TYPE rcm_proxy_%s counter\n", name, help, name)
		fmt.Fprintf(w, "rcm_proxy_%s %d\n", name, v)
	}
	counter("spill_total", "requests served by a ring successor because the home replica was saturated", rs.Spills)
	counter("retry_total", "transport-failure failovers to another replica", rs.Retries)
	counter("coalesced_total", "requests that replayed an identical in-flight request", rs.Coalesced)
	counter("hotcache_hits_total", "requests answered from the proxy-side hot cache", rs.HotHits)
	counter("body_index_hits_total", "keyless requests whose pattern digest the body index held", rs.IndexHits)
	counter("body_index_misses_total", "keyless requests decoded to learn their pattern digest", rs.IndexMisses)
	fmt.Fprintf(w, "# HELP rcm_proxy_body_index_entries bodies the body index holds\n# TYPE rcm_proxy_body_index_entries gauge\n")
	fmt.Fprintf(w, "rcm_proxy_body_index_entries %d\n", rs.IndexEntries)
}
