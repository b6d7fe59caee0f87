package bench

import (
	"bytes"
	"strings"
	"testing"
)

// The RCM-against-Sloan columns of the ordering ablation.
func TestRunSloanComparison(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 6, Out: &buf, Matrices: []string{"ldoor", "nlpkkt240"}}
	rows, err := RunAblationOrdering(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Both heuristics must improve on the scrambled input.
		if r.RCM.Profile >= r.Input.Profile || r.Sloan.Profile >= r.Input.Profile {
			t.Errorf("%s: profiles not reduced: before=%d rcm=%d sloan=%d",
				r.Name, r.Input.Profile, r.RCM.Profile, r.Sloan.Profile)
		}
		// On plain meshes Sloan (which targets the profile) must stay
		// within 2x of RCM; saddle-point structures like nlpkkt defeat
		// its default weights, which the experiment is there to show.
		if r.Name == "ldoor" && r.Sloan.Profile > 2*r.RCM.Profile {
			t.Errorf("%s: Sloan profile %d far above RCM %d", r.Name, r.Sloan.Profile, r.RCM.Profile)
		}
		if r.Sloan.Wavefront.RMS <= 0 || r.RCM.Wavefront.RMS <= 0 {
			t.Errorf("%s: missing wavefront stats", r.Name)
		}
	}
	if !strings.Contains(buf.String(), "rms-sloan") {
		t.Error("table not rendered")
	}
}

func TestRunAblationDCSC(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 6, MaxCores: 1024, Out: &buf}
	rows := RunAblationDCSC(cfg)
	if len(rows) < 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// At p=1 CSC is compact (DCSC pays the duplicate column-id array);
	// in the hypersparse regime DCSC must win, and the ratio must grow.
	first, last := rows[0], rows[len(rows)-1]
	if first.DCSCWords < first.CSCWords {
		t.Errorf("p=1: dcsc %d words below csc %d — unexpected for a dense block", first.DCSCWords, first.CSCWords)
	}
	if last.DCSCWords >= last.CSCWords {
		t.Errorf("hypersparse p=%d: dcsc %d words not below csc %d", last.Procs, last.DCSCWords, last.CSCWords)
	}
	prev := 0.0
	for _, r := range rows {
		ratio := float64(r.CSCWords) / float64(r.DCSCWords)
		if ratio < prev*0.9 { // allow small wobble
			t.Errorf("csc/dcsc ratio not growing: %+v", rows)
		}
		prev = ratio
	}
	if !strings.Contains(buf.String(), "DCSC") {
		t.Error("table not rendered")
	}
}
