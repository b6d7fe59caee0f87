package spmat_test

import (
	"testing"

	"repro/internal/graphgen"
	"repro/internal/spmat"
)

// TestSummarizeAnalog checks every Summarize field against the serial
// kernels on a suite analog past the parallel gate, so its passes run their
// parallel paths unforced. It lives in the external test package because
// graphgen imports spmat.
func TestSummarizeAnalog(t *testing.T) {
	a := graphgen.SuiteByName("ldoor").Build(3)
	if a.N < 2048 {
		t.Fatalf("ldoor at scale 3 has %d rows, below the 2,048-row parallel gate", a.N)
	}
	if got, want := spmat.Summarize("ldoor", a), spmat.SerialSummary("ldoor", a); got != want {
		t.Errorf("Summarize = %#v, serial kernels give %#v", got, want)
	}
}
