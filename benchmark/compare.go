package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// benchDef is the part of BENCHMARK.json the comparison needs.
type benchDef struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

// boundDef is one metric definition; per-layer metrics have no bound.
type boundDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchDef(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// verdict is one (workload, metric) row of a comparison.
type verdict struct {
	Workload, Metric string
	A, B             [3]float64 // first quartile, median, third quartile
	NA, NB           int
	Change           float64 // B median over A median, minus one
	Bound            float64 // -1 for a per-layer metric
	Verdict          string  // same, better, worse, unresolved, or "-" (no bound)
}

// compareRuns applies the benchmark's rule to two sets of runs of each
// workload. A metric is worse when B's median is worse than A's by more
// than its bound, better when it is better by more than that. When either
// side's spread — the distance between its quartiles over its median —
// exceeds the bound, the difference cannot be told from noise and the
// metric is unresolved, unless every B run is better than every A run.
func compareRuns(def *benchDef, a, b []record) []verdict {
	var out []verdict
	for _, w := range def.Workloads {
		for _, traced := range []bool{false, true} {
			defs := def.EndToEnd
			if traced {
				defs = def.PerLayer
			}
			for _, d := range defs {
				va, vb := values(a, w.Name, traced, d.Name), values(b, w.Name, traced, d.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				out = append(out, judge(w.Name, d, va, vb))
			}
		}
	}
	return out
}

func judge(workload string, d boundDef, va, vb []float64) verdict {
	v := verdict{Workload: workload, Metric: d.Name, NA: len(va), NB: len(vb), Bound: -1, Verdict: "-"}
	v.A[0], v.A[1], v.A[2] = quartiles(va)
	v.B[0], v.B[1], v.B[2] = quartiles(vb)
	v.Change = ratio(v.B[1], v.A[1]) - 1
	if d.Bound == nil {
		return v
	}
	v.Bound = *d.Bound
	worse := v.Change // share by which B is worse than A
	if d.Better == "higher" {
		worse = -worse
	}
	spread := func(q [3]float64) float64 { return ratio(q[2]-q[0], math.Abs(q[1])) }
	noisy := spread(v.A) > v.Bound || spread(v.B) > v.Bound
	allBetter := slices.Max(vb) < slices.Min(va)
	if d.Better == "higher" {
		allBetter = slices.Min(vb) > slices.Max(va)
	}
	switch {
	case noisy && allBetter:
		v.Verdict = "better"
	case noisy:
		v.Verdict = "unresolved"
	case worse > v.Bound:
		v.Verdict = "worse"
	case -worse > v.Bound:
		v.Verdict = "better"
	default:
		v.Verdict = "same"
	}
	return v
}

// values collects one metric of one workload over a set of runs.
func values(recs []record, workload string, traced bool, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		for _, m := range r.Metrics {
			if m.Name == name {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// runCompare implements -compare A.json... -- B.json...; it exits 1 when a
// metric got worse than its bound allows.
func runCompare(config string, args []string, stdout, stderr io.Writer) int {
	sep := slices.Index(args, "--")
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "benchmark: usage: -compare A.json... -- B.json...")
		return 2
	}
	def, err := readBenchDef(config)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	load := func(paths []string) ([]record, error) {
		var all []record
		for _, p := range paths {
			recs, err := readRecords(p)
			if err != nil {
				return nil, err
			}
			all = append(all, recs...)
		}
		return all, nil
	}
	a, err := load(args[:sep])
	if err == nil {
		var b []record
		if b, err = load(args[sep+1:]); err == nil {
			return printVerdicts(stdout, compareRuns(def, a, b))
		}
	}
	fmt.Fprintf(stderr, "benchmark: %v\n", err)
	return 2
}

func printVerdicts(w io.Writer, vs []verdict) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange\tbound\tverdict")
	code := 0
	for _, v := range vs {
		bound := "-"
		if v.Bound >= 0 {
			bound = fmt.Sprintf("%.1f%%", 100*v.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%+.2f%%\t%s\t%s\n",
			v.Workload, v.Metric, v.A[1], v.A[0], v.A[2], v.NA, v.B[1], v.B[0], v.B[2], v.NB, 100*v.Change, bound, v.Verdict)
		if v.Verdict == "worse" {
			code = 1
		}
	}
	tw.Flush()
	return code
}
