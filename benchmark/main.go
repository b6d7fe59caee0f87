// Command benchmark is the repository's benchmark: four workloads that
// exercise the library's default path, the distributed engine in its two
// regimes, and the serving tier, each measured end to end and, in a
// separate traced run, layer by layer. Run it from the repository root
// through run.sh, which builds it from source:
//
//	bash benchmark/run.sh -workload mesh-seq -seed 1
//	bash benchmark/run.sh -workload all -seed 1 -json base.json
//	bash benchmark/run.sh -workload dist-mesh -seed 1 -trace 1 -spans spans.json
//	bash benchmark/run.sh -compare base.json... -- change.json...
//
// A run generates its inputs from -seed, measures for -seconds, checks
// every output against an oracle, prints each metric as "name value unit"
// and ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. It exits non-zero when any check failed. See README.md for
// the workloads, the metric glossary and the comparison rule.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// record is one workload run as written by -json and read by -compare.
type record struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Trace       bool     `json:"trace"`
	Seconds     float64  `json:"seconds"`
	Correct     bool     `json:"correct"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	InputDigest string   `json:"input_digest"`
	Notes       []string `json:"notes,omitempty"`
	Metrics     []metric `json:"metrics"`
	// Raw holds an end-to-end run's metrics before the probe correction
	// (see probe.go), and ProbeMs the run's median probe time.
	Raw     []metric `json:"raw,omitempty"`
	ProbeMs float64  `json:"probe_ms,omitempty"`
	Host    host     `json:"host"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed the inputs and the request stream are generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "measured run length")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	spansPath := fs.String("spans", "", "write a traced run's spans to this JSON file")
	jsonPath := fs.String("json", "", "write the full records (metrics, notes, host, command) to this JSON file")
	compare := fs.Bool("compare", false, "compare result files against BENCHMARK.json's bounds: -compare A.json... -- B.json...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare("BENCHMARK.json", fs.Args(), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *name == "all" {
		return runAll(cfg, *spansPath, *jsonPath, stdout, stderr)
	}
	for _, w := range workloads() {
		if w.name == *name {
			return runOne(w, cfg, *spansPath, *jsonPath, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s, or all)\n", *name, strings.Join(names, ", "))
	return 2
}

// runOne runs one workload in this process and prints its result.
func runOne(w workload, cfg runConfig, spansPath, jsonPath string, stdout, stderr io.Writer) int {
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if cfg.trace {
		if err := checkNesting(out.spans); err != nil {
			out.correct = false
			out.notes = append(out.notes, err.Error())
		}
		if spansPath != "" {
			if err := writeSpans(spansPath, out.spans); err != nil {
				fmt.Fprintf(stderr, "benchmark: writing spans: %v\n", err)
				return 1
			}
		}
	}
	rec := record{
		Workload:    w.name,
		Seed:        cfg.seed,
		Trace:       cfg.trace,
		Seconds:     cfg.seconds,
		Correct:     out.correct,
		Attempted:   out.attempted,
		Failed:      out.failed,
		InputDigest: out.inputDigest,
		Notes:       out.notes,
		Metrics:     out.metrics,
		Raw:         out.raw,
		ProbeMs:     float64(out.probe) / float64(time.Millisecond),
		Host:        hostInfo(os.Args),
	}
	if jsonPath != "" {
		if err := writeRecords(jsonPath, []record{rec}); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(stderr, "%s: %s\n", w.name, n)
	}
	fmt.Fprintf(stdout, "workload %s seed %d trace %v input %s\n", w.name, cfg.seed, cfg.trace, rec.InputDigest)
	printMetrics(stdout, rec)
	if err := printSummary(stdout, []record{rec}); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// printMetrics prints every metric as "name value unit", then the op counts
// and the failed fraction.
func printMetrics(w io.Writer, rec record) {
	for _, m := range rec.Metrics {
		fmt.Fprintf(w, "%s %s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, m := range rec.Raw {
		fmt.Fprintf(w, "raw.%s %s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	if rec.ProbeMs > 0 {
		fmt.Fprintf(w, "host.probe_ms %s ms\n", strconv.FormatFloat(rec.ProbeMs, 'g', -1, 64))
	}
	fmt.Fprintf(w, "attempted %d count\nfailed %d count\nfail_frac %s ratio\n", rec.Attempted, rec.Failed,
		strconv.FormatFloat(ratio(float64(rec.Failed), float64(rec.Attempted)), 'g', -1, 64))
}

// printSummary writes the closing JSON line. With several records the
// metric names carry the workload as a prefix.
func printSummary(w io.Writer, recs []record) error {
	s := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range recs {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, m := range r.Metrics {
			key := m.Name
			if len(recs) > 1 {
				key = r.Workload + "." + m.Name
			}
			s.Metrics[key] = metricValue{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeRecords(path string, recs []record) error {
	data, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// runAll runs every workload in its own child process, so each has its own
// peak RSS and garbage-collector state, and prints their results.
func runAll(cfg runConfig, spansPath, jsonPath string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	var recs []record
	code := 0
	for _, w := range workloads() {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0"}
		if cfg.trace {
			args[len(args)-1] = "1"
			if spansPath != "" {
				args = append(args, "-spans", strings.TrimSuffix(spansPath, ".json")+"."+w.name+".json")
			}
		}
		part := ""
		if jsonPath != "" {
			part = jsonPath + "." + w.name
			args = append(args, "-json", part)
		}
		cmd := exec.Command(self, args...)
		var buf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &buf, stderr
		runErr := cmd.Run()
		rec, err := childRecord(w.name, cfg, buf.Bytes(), part, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v (%v)\n", w.name, err, runErr)
			code = 1
			continue
		}
		if runErr != nil {
			code = 1
		}
		recs = append(recs, rec)
	}
	if jsonPath != "" {
		if err := writeRecords(jsonPath, recs); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if len(recs) == 0 {
		return 1
	}
	if err := printSummary(stdout, recs); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return code
}

// childRecord echoes a child's output with its workload as a prefix and
// recovers its record: from its -json file when one was written, else from
// its closing summary line.
func childRecord(name string, cfg runConfig, out []byte, part string, stdout io.Writer) (record, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if last != "" {
			fmt.Fprintf(stdout, "%s %s\n", name, last)
		}
		last = sc.Text()
	}
	if part != "" {
		recs, err := readRecords(part)
		os.Remove(part)
		if err != nil {
			return record{}, err
		}
		if len(recs) != 1 {
			return record{}, fmt.Errorf("%s holds %d records, want 1", part, len(recs))
		}
		return recs[0], nil
	}
	var s summary
	if err := json.Unmarshal([]byte(last), &s); err != nil || s.Metrics == nil {
		return record{}, errors.New("no result line")
	}
	rec := record{Workload: name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Correct: s.Correct, Attempted: s.Attempted, Failed: s.Failed}
	for _, k := range sortedKeys(s.Metrics) {
		rec.Metrics = append(rec.Metrics, metric{Name: k, Value: s.Metrics[k].Value, Unit: s.Metrics[k].Unit})
	}
	return rec, nil
}
