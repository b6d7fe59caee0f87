package cluster

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/rcm/service"
)

// replicaSnapshot builds one replica's stats with its latency map
// populated in the given key order.
func replicaSnapshot(order []string, scale uint64) *service.Stats {
	st := &service.Stats{
		Hits: scale, Misses: 2 * scale, Jobs: 3 * scale,
		IndexStats: service.IndexStats{IndexHits: 4 * scale, IndexMisses: scale, IndexEntries: int(scale)},
		Latency:    make(map[string]service.LatencyStats, len(order)),
	}
	for _, b := range order {
		weight := uint64(len(b)) // value depends on the backend, never on insertion position
		st.Latency[b] = service.LatencyStats{
			Count:        scale * weight,
			TotalSeconds: float64(scale) * float64(weight) * 0.1,
			Buckets: []service.LatencyBucket{
				{LeSeconds: 0.005, Count: scale},
				{LeSeconds: 0.05, Count: scale * weight},
			},
		}
	}
	st.Modeled = []service.PhaseSeconds{
		{Phase: "ordering.spmspv", CompSeconds: float64(scale), CommSeconds: 0.5},
	}
	return st
}

// TestMergeStatsDeterministic pins the mapiter fixes in the fleet /v1/stats
// aggregation: merging the same replica snapshots must yield byte-identical
// JSON regardless of the latency maps' insertion orders or the order the
// maps hash their keys, so repeated scrapes of identical fleet state are
// diffable.
func TestMergeStatsDeterministic(t *testing.T) {
	render := func(orders [][]string) string {
		agg := &service.Stats{}
		for i, order := range orders {
			mergeStats(agg, replicaSnapshot(order, uint64(i+1)))
		}
		out, err := json.Marshal(agg)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	a := render([][]string{
		{"sequential", "distributed", "parallel"},
		{"parallel", "distributed", "sequential"},
	})
	for i := 0; i < 5; i++ {
		b := render([][]string{
			{"distributed", "sequential", "parallel"},
			{"sequential", "parallel", "distributed"},
		})
		if a != b {
			t.Fatalf("merged fleet stats depend on map order:\n--- a ---\n%s\n--- b ---\n%s", a, b)
		}
	}
	// The body index counters sum like the others: scales 1 and 2.
	if want := `"indexHits":12,"indexMisses":3,"indexEntries":3`; !strings.Contains(a, want) {
		t.Errorf("merged fleet stats %s lack %s", a, want)
	}
}

// TestMergeLatencyBucketsSorted pins mergeLatency's bucket order: merged
// histograms come out ascending by bound whatever order the inputs carried.
func TestMergeLatencyBucketsSorted(t *testing.T) {
	a := service.LatencyStats{Count: 3, Buckets: []service.LatencyBucket{
		{LeSeconds: 0.5, Count: 3}, {LeSeconds: 0.005, Count: 1},
	}}
	b := service.LatencyStats{Count: 2, Buckets: []service.LatencyBucket{
		{LeSeconds: 0.05, Count: 2}, {LeSeconds: 0.5, Count: 2},
	}}
	out := mergeLatency(a, b)
	if len(out.Buckets) != 3 {
		t.Fatalf("merged %d buckets, want 3: %+v", len(out.Buckets), out.Buckets)
	}
	for i := 1; i < len(out.Buckets); i++ {
		if out.Buckets[i-1].LeSeconds >= out.Buckets[i].LeSeconds {
			t.Fatalf("buckets not ascending by bound: %+v", out.Buckets)
		}
	}
	if out.Buckets[2].Count != 5 {
		t.Fatalf("0.5s bucket should sum 3+2=5, got %d", out.Buckets[2].Count)
	}
}
