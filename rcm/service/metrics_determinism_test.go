package service

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// metricsStats builds a Stats snapshot whose Latency map is populated in
// the given key order, so repeated builds exercise different map layouts.
func metricsStats(order []string) Stats {
	st := Stats{
		Hits: 7, Misses: 3, Dedups: 2, Evictions: 1, Jobs: 5,
		Inflight: 1, QueueDepth: 2, Entries: 4, Bytes: 4096,
		CapacityBytes: 1 << 20, Workers: 8,
		IndexStats: IndexStats{IndexHits: 11, IndexMisses: 6, IndexEntries: 5},
		Latency:    make(map[string]LatencyStats, len(order)),
	}
	for _, b := range order {
		weight := uint64(len(b)) // value depends on the backend, never on insertion position
		st.Latency[b] = LatencyStats{
			Count:        10 * weight,
			TotalSeconds: float64(weight) * 0.25,
			Buckets: []LatencyBucket{
				{LeSeconds: 0.001, Count: weight},
				{LeSeconds: 0.01, Count: 5 * weight},
			},
		}
	}
	st.Modeled = []PhaseSeconds{
		{Phase: "ordering.spmspv", CompSeconds: 1.5, CommSeconds: 0.5},
		{Phase: "peripheral.spmspv", CompSeconds: 0.75, CommSeconds: 0.25},
	}
	return st
}

// TestWriteMetricsByteIdentical pins the mapiter fix in writeMetrics:
// scraping /metrics for identical state must render byte-identical text no
// matter what order the latency map was populated in or how its buckets
// hash. This is the property Prometheus needs for diffable scrapes and the
// golden-output contract the lint suite enforces statically.
func TestWriteMetricsByteIdentical(t *testing.T) {
	orders := [][]string{
		{"sequential", "distributed", "parallel", "hybrid"},
		{"hybrid", "parallel", "distributed", "sequential"},
		{"parallel", "sequential", "hybrid", "distributed"},
	}
	var first string
	for i, order := range orders {
		for rep := 0; rep < 3; rep++ {
			rec := httptest.NewRecorder()
			writeMetrics(rec, metricsStats(order))
			body := rec.Body.String()
			if i == 0 && rep == 0 {
				first = body
				continue
			}
			if body != first {
				t.Fatalf("metrics render differs for insertion order %v (rep %d):\n--- first ---\n%s\n--- now ---\n%s", order, rep, first, body)
			}
		}
	}
	if first == "" {
		t.Fatal("no metrics rendered")
	}
}

// TestStatsSnapshotDeterministic pins Service.Stats' detmap conversion:
// the latency and modeled maps must snapshot into identically ordered
// output regardless of map layout. The body index's series come along.
func TestStatsSnapshotDeterministic(t *testing.T) {
	body := []byte("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 1\n")
	build := func(order []string) *Service {
		s := New(Config{Workers: 1, CacheBytes: 1 << 16})
		for _, b := range order {
			s.latency[b] = &latencyHist{}
			s.latency[b].observe(2 * time.Millisecond)
		}
		for range 2 {
			if _, err := s.index.Digest(context.Background(), "", BodyKey("", body), body); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	a := build([]string{"sequential", "distributed", "parallel"})
	defer a.Close()
	b := build([]string{"parallel", "sequential", "distributed"})
	defer b.Close()
	sa, sb := a.Stats(), b.Stats()
	if len(sa.Latency) != 3 || len(sb.Latency) != 3 {
		t.Fatalf("latency snapshots incomplete: %d and %d backends", len(sa.Latency), len(sb.Latency))
	}
	reca, recb := httptest.NewRecorder(), httptest.NewRecorder()
	writeMetrics(reca, sa)
	writeMetrics(recb, sb)
	if reca.Body.String() != recb.Body.String() {
		t.Fatalf("stats render depends on map insertion order:\n--- a ---\n%s\n--- b ---\n%s", reca.Body.String(), recb.Body.String())
	}
	for _, want := range []string{
		"rcm_service_body_index_hits_total 1\n",
		"rcm_service_body_index_misses_total 1\n",
		"rcm_service_body_index_entries 1\n",
	} {
		if !strings.Contains(reca.Body.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
