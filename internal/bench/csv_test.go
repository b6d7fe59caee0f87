package bench

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
)

func TestWriteScalingCSV(t *testing.T) {
	cfg := Config{Scale: 8, MaxCores: 24, Matrices: []string{"Nm7"}}
	series := RunScaling(cfg)
	var buf bytes.Buffer
	if err := WriteScalingCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 1 + len(series[0].Points)
	if len(rows) != wantRows {
		t.Fatalf("%d rows, want %d", len(rows), wantRows)
	}
	if rows[0][0] != "matrix" || rows[0][len(rows[0])-1] != "bandwidth" {
		t.Errorf("header = %v", rows[0])
	}
	// Totals parse and are positive.
	for _, r := range rows[1:] {
		v, err := strconv.ParseFloat(r[11], 64)
		if err != nil || v <= 0 {
			t.Errorf("bad total %q", r[11])
		}
	}
}

func TestWriteFig1CSV(t *testing.T) {
	res := RunFig1(Config{Scale: 12, MaxCores: 16})
	var buf bytes.Buffer
	if err := WriteFig1CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+2*len(res.Points) {
		t.Fatalf("%d rows for %d points", len(rows), len(res.Points))
	}
	if rows[1][1] != "natural" || rows[2][1] != "rcm" {
		t.Errorf("ordering labels: %v %v", rows[1], rows[2])
	}
}
