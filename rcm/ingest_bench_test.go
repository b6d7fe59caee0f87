package rcm_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/mmio"
	"repro/internal/spmat"
	"repro/rcm"
)

// BenchmarkIngest measures the raw-speed ingest-and-permute path in
// isolation: RCMB decode from an in-memory image (the mmap'd-file case),
// decode with the cache-key digest fused in, Matrix Market text decode of
// the same matrix, the input symmetry check, PAPᵀ under the matrix's own
// RCM order (the narrow band OrderMatrix builds), PAPᵀ under a random
// permutation (the widest band, every row block's window spanning nearly
// every column) with the *Par stats kernels over it (an archived series:
// Order has computed its statistics with the fused OrderStats pass instead
// since it stopped building PAPᵀ), and that OrderStats pass: decode,
// permute and stats each serial versus parallel.
// b.SetBytes makes `go test -bench` report MB/s alongside ns/op, and
// cmd/benchjson folds both into the BENCH_order.json artifact, so CI's
// regression gate covers the ingest path too.
func BenchmarkIngest(b *testing.B) {
	entry, err := rcm.SuiteByName("ldoor")
	if err != nil {
		b.Fatal(err)
	}
	m := entry.Build(2) // n=13.5k, nnz=307k: past the parallel-dispatch gates
	var buf bytes.Buffer
	if err := rcm.WriteBinary(&buf, m); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()

	modes := []struct {
		name    string
		threads int
	}{{"serial", 1}, {"parallel", 0}}

	for _, mode := range modes {
		b.Run("decode/"+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if _, err := mmio.ReadBinaryBytes(raw, mode.threads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, mode := range modes {
		b.Run("decode-digest/"+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if _, _, err := mmio.ReadBinaryBytesDigest(raw, mode.threads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// The same matrix as symmetric Matrix Market text, the other upload
	// format: line scanning, field parsing and the CSR build.
	var text bytes.Buffer
	if err := rcm.WriteMatrixMarket(&text, m, true); err != nil {
		b.Fatal(err)
	}
	b.Run("decode-mm", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(text.Len()))
		for i := 0; i < b.N; i++ {
			if _, _, err := mmio.Read(bytes.NewReader(text.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})

	a, err := mmio.ReadBinaryBytes(raw, 0)
	if err != nil {
		b.Fatal(err)
	}
	// The symmetry check every Order runs on its input: one merge pass over
	// the pattern, so the bytes swept are the pattern's. symcheck is the
	// one-block merge; symcheck-parallel splits it into row blocks, as
	// Order does under a distributed run's cores.
	for _, mode := range []struct {
		name    string
		threads int
	}{{"symcheck", 1}, {"symcheck-parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * (a.NNZ() + a.N)))
			for i := 0; i < b.N; i++ {
				if !a.IsSymmetricPatternPar(mode.threads) {
					b.Fatal("suite matrix reported asymmetric")
				}
			}
		})
	}

	// PAPᵀ as OrderMatrix builds it: under the RCM order, from the
	// symmetry answer the facade already has, values included. The
	// scatter reads the pattern once and the value pass reads the pattern
	// and the values once more.
	res, err := rcm.Order(m)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range modes {
		b.Run("permute-rcm/"+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * (3*a.NNZ() + a.N)))
			for i := 0; i < b.N; i++ {
				if _, err := a.PermuteChecked(res.Perm, true, mode.threads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	perm := rand.New(rand.NewSource(1)).Perm(a.N)
	// Bytes actually swept per iteration: the pattern once for the permute
	// scatter and once for the stats kernels, as 8-byte words.
	patternBytes := int64(8 * (2*a.NNZ() + a.N))
	for _, mode := range modes {
		b.Run("permute-stats/"+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(patternBytes)
			for i := 0; i < b.N; i++ {
				p := a.PermutePar(perm, mode.threads)
				_ = p.BandwidthPar(mode.threads)
				_ = p.ProfilePar(mode.threads)
				_ = p.WavefrontPar(mode.threads)
			}
		})
	}
	// The fused pass Order runs for its After statistics instead of the
	// permute and the kernels above: one sweep of the pattern through the
	// inverse of the same permutation.
	inv := spmat.InvertPerm(perm)
	for _, mode := range modes {
		b.Run("order-stats/"+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * (a.NNZ() + a.N)))
			for i := 0; i < b.N; i++ {
				_ = a.OrderStats(inv, mode.threads)
			}
		})
	}
}
