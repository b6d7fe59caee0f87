package main

import (
	"math"
	"time"
)

// Run-shape constants. BENCHMARK.json holds the run length (run_seconds,
// passed as -seconds); the rest are fixed here so a change to them is a
// change to the benchmark.
const (
	// defaultSeconds is the measured run length when -seconds is not given;
	// it equals run_seconds in BENCHMARK.json.
	defaultSeconds = 22
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median, and the last setup is the one measured.
	setupReps = 3
	// benchScale and serveScale divide the suite analogs' linear
	// dimensions: scale 2 gives the batch workloads 10–15k rows and
	// 150–375k nonzeros; scale 4 gives serve-hot 1.3–3.8k-row bodies.
	benchScale = 2
	serveScale = 4
	// testScale is the small scale the tests run every workload at.
	testScale = 6
	// batchThreads is the program-side parallelism of mesh-seq: RCMB
	// decode, permute and statistics each use two workers on a two-core
	// host.
	batchThreads = 2
	// distProcs is the simulated process grid of the dist-* workloads
	// (2×2). Its rank goroutines are the simulator's real cost.
	distProcs = 4
	// serveRate is serve-hot's phase-B open-loop arrival rate, about 45%
	// of the capacity_rps measured on the reference host (see README.md).
	// It is a constant so the offered load never depends on the host.
	serveRate = 135.0
	// latencyLimit is the serving latency objective on phase-B p99.
	latencyLimit = 100 * time.Millisecond
	// lagLimit marks a phase-B run invalid when the load generator ran
	// later than this at p99: its latencies would then understate stalls.
	lagLimit = 5 * time.Millisecond
)

// runConfig is one workload run.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// small selects test-sized inputs (testScale) for the test suite.
	small bool
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func (c runConfig) scale(full int) int {
	if c.small {
		return testScale
	}
	return full
}

// outcome is what one workload run measured and checked.
type outcome struct {
	correct     bool
	attempted   int
	failed      int
	metrics     metrics
	notes       []string
	inputDigest string
	spans       []span
	// raw holds the end-to-end metrics before the probe correction, and
	// probe the run's median memory-probe time.
	raw   metrics
	probe time.Duration
}

// workload names one traffic mix and the function that runs it.
type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

func workloads() []workload {
	return []workload{
		{"mesh-seq", batchMeshSeq.run},
		{"dist-mesh", batchDistMesh.run},
		{"dist-lowdiam", batchDistLowDiam.run},
		{"serve-hot", runServeHot},
	}
}

// metricDef is one catalogued metric. Every run emits its whole catalogue —
// end-to-end metrics untraced, per-layer metrics traced — so a metric that
// a workload does not exercise reads 0 rather than going missing.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"nnz_per_s", "nnz/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

var tallyPhases = []string{
	"peripheral-spmspv", "peripheral-other", "ordering-spmspv",
	"ordering-sort", "ordering-other", "setup",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"mmio.decode_ms", "ms"},
		{"mmio.decode_mb_per_s", "MB/s"},
		{"spmat.symcheck_ms", "ms"},
		{"spmat.permute_ms", "ms"},
		{"spmat.stats_ms", "ms"},
		{"spmat.digest_ms", "ms"},
		{"core.peripheral_ms", "ms"},
		{"core.traversal_ms", "ms"},
		{"core.levels", "count"},
		{"core.sweeps", "count"},
		{"dist.peripheral_ms", "ms"},
		{"dist.ordering_ms", "ms"},
		{"dist.vs_seq_x", "x"},
	}
	for _, p := range tallyPhases {
		defs = append(defs, metricDef{"tally." + p + ".comp_s", "s"}, metricDef{"tally." + p + ".comm_s", "s"})
	}
	return append(defs, []metricDef{
		{"comm.msgs", "count"},
		{"comm.words", "count"},
		{"core.td_levels", "count"},
		{"core.bu_levels", "count"},
		{"modeled_s", "s"},
		{"modeled_speedup_p16", "x"},
		{"rcm.glue_ms", "ms"},
		{"service.decode_rcmb_ms", "ms"},
		{"service.decode_mm_ms", "ms"},
		{"service.key_us", "us"},
		{"service.hit_us", "us"},
		{"service.miss_ms", "ms"},
		{"service.handler_hit_ms", "ms"},
		{"service.hit_ratio", "ratio"},
		{"service.jobs", "count"},
		{"service.dedups", "count"},
		{"service.evictions", "count"},
		{"cluster.hop_ms", "ms"},
		{"cluster.coalesced", "count"},
		{"cluster.hot_hits", "count"},
		{"cluster.spills", "count"},
		{"cluster.shed", "count"},
		{"loadgen.lag_p99_ms", "ms"},
		{"trace.overhead_frac", "ratio"},
		{"trace.residual_frac", "ratio"},
		{"host.probe_ms", "ms"},
	}...)
}()

// emit renders a catalogue in order from measured values; absent names,
// and values a degenerate run left undefined, read 0.
func emit(defs []metricDef, values map[string]float64) metrics {
	out := make(metrics, len(defs))
	for i, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[i] = metric{Name: d.name, Value: v, Unit: d.unit}
	}
	return out
}
