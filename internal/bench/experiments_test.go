package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// experimentChecks holds, per experiment id, the assertion its run must
// pass at the tiny scale of TestExperiments.
var experimentChecks = map[string]func(t *testing.T, res any, out string){
	"fig1": func(t *testing.T, res any, _ string) {
		if r := res.(*Fig1Result); r.BWRCM >= r.BWNatural {
			t.Errorf("RCM bandwidth %d not below natural %d", r.BWRCM, r.BWNatural)
		}
	},
	"fig3":   wantRows(9),
	"table2": wantRows(9),
	"fig4":   wantRows(9),
	"fig5": func(t *testing.T, res any, _ string) {
		for _, s := range res.([]ScaleSeries) {
			for _, p := range s.Points {
				if p.SpMSpVComp+p.SpMSpVComm <= 0 {
					t.Errorf("%s @%d: empty SpMSpV split", s.Name, p.Config.Cores)
				}
			}
		}
	},
	"fig6": func(t *testing.T, res any, _ string) {
		if len(res.(ScaleSeries).Points) == 0 {
			t.Error("no points")
		}
	},
	"ablation-sort": wantRows(9),
	"ablation-direction": func(t *testing.T, res any, _ string) {
		for _, r := range res.([]DirectionAblationRow) {
			if !r.Identical {
				t.Errorf("%s: permutation varies with direction", r.Name)
			}
		}
	},
	"ablation-heuristic": func(t *testing.T, _ any, out string) {
		for _, col := range []string{"bw-pp", "bw-bc", "bw-md", "bw-fv", "ldoor"} {
			if !strings.Contains(out, col) {
				t.Errorf("table missing %q", col)
			}
		}
	},
	"ablation-semiring": wantRows(9),
	"ablation-hybrid":   wantRows(1),
	"ablation-format":   wantRows(5),
	"quality": func(t *testing.T, res any, _ string) {
		for _, r := range res.([]QualityRow) {
			if !r.Identical {
				t.Errorf("%s: quality varies with concurrency", r.Name)
			}
		}
	},
	"sizesense": wantRows(3),
	"ablation-dcsc": func(t *testing.T, res any, _ string) {
		rows := res.([]DCSCRow)
		if last := rows[len(rows)-1]; last.DCSCWords >= last.CSCWords {
			t.Errorf("p=%d: DCSC (%d words) not smaller than CSC (%d)", last.Procs, last.DCSCWords, last.CSCWords)
		}
	},
	"ablation-components": func(t *testing.T, res any, _ string) {
		for _, r := range res.([]ComponentAblationRow) {
			if !r.Identical {
				t.Errorf("%s: scheduling changed the permutation", r.Name)
			}
		}
	},
	"ablation-ordering": wantRows(9),
	"fleet":             nil, // TestRunFleetSmoke runs its reduced sweep
	"spy": func(t *testing.T, _ any, out string) {
		if !strings.Contains(out, "ldoor after RCM:") {
			t.Errorf("no spy plot rendered:\n%s", out)
		}
	},
}

// wantRows checks that a runner returned n rows (or series).
func wantRows(n int) func(t *testing.T, res any, out string) {
	return func(t *testing.T, res any, _ string) {
		if got := reflect.ValueOf(res).Len(); got != n {
			t.Errorf("got %d rows, want %d", got, n)
		}
	}
}

// csvRows is the number of data lines an experiment's CSV writer emits for
// its results: two per Fig. 1 point (natural and RCM), one per scaling
// point, and one per row otherwise.
func csvRows(res any) int {
	switch r := res.(type) {
	case *Fig1Result:
		return 2 * len(r.Points)
	case []ScaleSeries:
		n := 0
		for _, s := range r {
			n += len(s.Points)
		}
		return n
	}
	return reflect.ValueOf(res).Len()
}

// TestExperiments runs every experiment of the table at a tiny scale, so
// each id rcmbench accepts stays runnable: it renders a table, passes its
// check, and writes a header plus one CSV line per result where it has a
// CSV writer.
func TestExperiments(t *testing.T) {
	var out bytes.Buffer
	cfg := Config{Scale: 16, MaxCores: 64, Procs: 4, AMDThreads: 2, Out: &out}
	for _, e := range Experiments(cfg) {
		t.Run(e.ID, func(t *testing.T) {
			check, ok := experimentChecks[e.ID]
			if !ok {
				t.Fatal("no check for this experiment")
			}
			if check == nil {
				t.Skip("covered by TestRunFleetSmoke")
			}
			out.Reset()
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if out.Len() == 0 {
				t.Fatal("rendered nothing")
			}
			check(t, res, out.String())
			if e.CSV == nil {
				return
			}
			var csv bytes.Buffer
			if err := e.CSV(&csv, res); err != nil {
				t.Fatal(err)
			}
			rows := csvRows(res)
			if lines := strings.Count(csv.String(), "\n"); rows == 0 || lines != 1+rows {
				t.Errorf("CSV has %d lines, want a header and %d rows", lines, rows)
			}
		})
	}
}

// TestScalingSweepRunsOnce pins that a table's fig4 and fig5 entries share
// one strong-scaling sweep, so `rcmbench -exp all` runs it once.
func TestScalingSweepRunsOnce(t *testing.T) {
	var runs [][]ScaleSeries
	for _, e := range Experiments(Config{Scale: 16, MaxCores: 6, Matrices: []string{"ldoor"}}) {
		if e.ID == "fig4" || e.ID == "fig5" {
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, res.([]ScaleSeries))
		}
	}
	if len(runs) != 2 || &runs[0][0] != &runs[1][0] {
		t.Error("fig5 did not reuse fig4's sweep")
	}
}
