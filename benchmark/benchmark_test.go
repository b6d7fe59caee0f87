package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// small runs every workload on scale-6 inputs for well under a second of
// measurement.
func small(seed int64, trace bool) runConfig {
	return runConfig{seed: seed, seconds: 0.6, trace: trace, small: true}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	def, err := readBenchDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if def.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", def.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	check := func(kind string, got []boundDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
	for _, d := range def.EndToEnd {
		if d.Bound == nil || *d.Bound < 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound must be within [0, 0.25]", d.Name)
		}
	}
}

// TestWorkloads runs each workload untraced and traced on small inputs:
// every catalogued metric must be emitted with its unit, every op must pass
// its oracle, end-to-end metrics must never read 0, and the traced run's
// spans must nest with non-negative self times.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				out, err := w.run(small(1, trace))
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(out.metrics) != len(defs) {
					t.Fatalf("trace=%v: %d metrics, want %d", trace, len(out.metrics), len(defs))
				}
				for i, d := range defs {
					m := out.metrics[i]
					if m.Name != d.name || m.Unit != d.unit {
						t.Errorf("trace=%v: metric %d is %s %s, want %s %s", trace, i, m.Name, m.Unit, d.name, d.unit)
					}
					if !trace && (m.Value <= 0 || math.IsNaN(m.Value)) {
						t.Errorf("%s = %v, want a positive value", m.Name, m.Value)
					}
				}
				if !out.correct || out.failed != 0 || out.attempted == 0 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d notes=%v", trace, out.correct, out.attempted, out.failed, out.notes)
				}
				if !trace {
					continue
				}
				if len(out.spans) == 0 {
					t.Fatal("traced run recorded no spans")
				}
				if err := checkNesting(out.spans); err != nil {
					t.Error(err)
				}
				for i, d := range selfTimes(out.spans) {
					if d < 0 {
						t.Errorf("span %s has negative self time %v", out.spans[i].Name, d)
					}
				}
			}
		})
	}
}

func TestInputDigests(t *testing.T) {
	digest := func(seed int64) map[string]string {
		out := map[string]string{}
		cfg := small(seed, false)
		for _, b := range []*batchWorkload{batchMeshSeq, batchDistMesh, batchDistLowDiam} {
			_, d, err := b.setup(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out[b.name] = d
		}
		s, d, err := serveSetup(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.fleet.close()
		out["serve-hot"] = d
		return out
	}
	a, b, c := digest(3), digest(3), digest(4)
	for _, w := range workloads() {
		if a[w.name] != b[w.name] {
			t.Errorf("%s: seed 3 gave inputs %s and %s", w.name, a[w.name], b[w.name])
		}
		if a[w.name] == c[w.name] {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs %s", w.name, a[w.name])
		}
	}
}

func TestSelfTimesAndNesting(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Req: 1, Name: "c", Start: 90, End: 100},
		{ID: 5, Parent: 3, Req: 1, Name: "d", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{50, 20, 10, 10, 20} {
		if self[i] != want {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want)
		}
	}
	if err := checkNesting(spans); err != nil {
		t.Error(err)
	}
	spans[3].End = 120
	if checkNesting(spans) == nil {
		t.Error("a child ending after its parent passed the nesting check")
	}
	if got := childTimes(spans[:3], "op")[1]; got != 40 {
		t.Errorf("children of op cover %v, want 40", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := func(b float64) *float64 { return &b }
	lower := boundDef{Name: "latency_p50_ms", Better: "lower", Bound: bound(0.1)}
	higher := boundDef{Name: "capacity_rps", Better: "higher", Bound: bound(0.1)}
	exact := boundDef{Name: "count", Better: "lower", Bound: bound(0)}
	cases := []struct {
		name   string
		def    boundDef
		a, b   []float64
		change float64
		want   string
	}{
		{"within bound", lower, []float64{10, 10.1, 9.9}, []float64{10.5, 10.4, 10.6}, 0.05, "same"},
		{"slower", lower, []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, 0.2, "worse"},
		{"faster", lower, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, -0.2, "better"},
		{"noisy", lower, []float64{5, 10, 15}, []float64{12, 12.1, 11.9}, 0.2, "unresolved"},
		{"noisy but every run better", lower, []float64{10, 14, 18}, []float64{5, 7, 9}, -0.5, "better"},
		{"throughput drop", higher, []float64{100, 101, 99}, []float64{80, 81, 79}, -0.2, "worse"},
		{"throughput gain", higher, []float64{100, 101, 99}, []float64{120, 121, 119}, 0.2, "better"},
		{"exact count kept", exact, []float64{7, 7, 7}, []float64{7, 7, 7}, 0, "same"},
		{"exact count moved", exact, []float64{7, 7, 7}, []float64{8, 8, 8}, 1 / 7.0, "worse"},
		{"no bound", boundDef{Name: "x", Better: "lower"}, []float64{1, 2, 3}, []float64{9, 9, 9}, 3.5, "-"},
	}
	for _, c := range cases {
		v := judge("w", c.def, c.a, c.b)
		if v.Verdict != c.want || math.Abs(v.Change-c.change) > 1e-9 {
			t.Errorf("%s: verdict %s change %.4f, want %s %.4f", c.name, v.Verdict, v.Change, c.want, c.change)
		}
	}

	def := &benchDef{EndToEnd: []boundDef{lower}}
	def.Workloads = append(def.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	rec := func(v float64, trace bool) record {
		return record{Workload: "w", Trace: trace, Metrics: []metric{{Name: "latency_p50_ms", Value: v, Unit: "ms"}}}
	}
	a := []record{rec(10, false), rec(10, false), rec(99, true)}
	b := []record{rec(20, false), rec(20, false)}
	vs := compareRuns(def, a, b)
	if len(vs) != 1 || vs[0].Verdict != "worse" || vs[0].NA != 2 {
		t.Errorf("compareRuns = %+v, want one worse verdict over two untraced runs", vs)
	}
	var sb strings.Builder
	if code := printVerdicts(&sb, vs); code != 1 || !strings.Contains(sb.String(), "worse") {
		t.Errorf("printVerdicts exit %d, output:\n%s", code, sb.String())
	}
}
