package spmat_test

import (
	"testing"

	"repro/internal/graphgen"
)

// BenchmarkSequentialBFS isolates the BFS substrate. It lives in the
// external test package because graphgen imports spmat.
func BenchmarkSequentialBFS(b *testing.B) {
	a := graphgen.SuiteByName("Serena").Build(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.BFS(0)
	}
}
