package rcm_test

import (
	"fmt"
	"testing"

	"repro/rcm"
)

// BenchmarkOrder measures the end-to-end facade hot path — Order on the
// generator-suite analogs — for every backend (the three engines, plus
// Algebraic, the distributed one at p = 1), reporting allocations.
// These are the wall-clock numbers of the simulation layer itself (not the
// modelled BSP time), which is what bounds how large a virtual machine the
// experiments can afford; the Distributed sub-benchmarks are the ones the
// typed substrate refactor targets, and the low-diameter matrices
// (Li7Nmax6, Nm7, Serena) are where the direction-optimized traversal pays.
//
// Distributed runs additionally report the per-direction level counts of
// the default Auto policy as custom metrics (td-levels / bu-levels), which
// cmd/benchjson folds into the BENCH_order.json artifact CI uploads — the
// machine-readable perf trajectory.
func BenchmarkOrder(b *testing.B) {
	const scale = 6
	matrices := []string{"ldoor", "Serena", "nlpkkt240", "Li7Nmax6", "Nm7"}
	backends := []struct {
		name string
		opts []rcm.Option
	}{
		{"sequential", nil},
		{"algebraic", []rcm.Option{rcm.WithBackend(rcm.Algebraic)}},
		{"shared", []rcm.Option{rcm.WithBackend(rcm.Shared), rcm.WithThreads(4)}},
		{"distributed", []rcm.Option{rcm.WithBackend(rcm.Distributed), rcm.WithProcs(16)}},
	}
	for _, be := range backends {
		for _, name := range matrices {
			entry, err := rcm.SuiteByName(name)
			if err != nil {
				b.Fatal(err)
			}
			m := entry.Build(scale)
			b.Run(fmt.Sprintf("%s/%s", be.name, name), func(b *testing.B) {
				b.ReportAllocs()
				var last *rcm.Result
				for i := 0; i < b.N; i++ {
					res, err := rcm.Order(m, be.opts...)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				if last != nil && last.Modeled != nil {
					b.ReportMetric(float64(last.Modeled.TopDownLevels), "td-levels")
					b.ReportMetric(float64(last.Modeled.BottomUpLevels), "bu-levels")
				}
			})
		}
	}
}

// BenchmarkOrderAMD measures the AMD family through the facade at thread
// counts 1 and 4 on the suite analogs the ordering ablation exercises —
// the multiple-elimination engine's wall-clock trajectory under CI's
// BENCH_order.json artifact, next to the RCM backends it shares the
// serving tier with. Output is byte-identical at both thread counts (see
// FuzzOrderDeterminism and the internal/amd goldens); only the time moves.
func BenchmarkOrderAMD(b *testing.B) {
	const scale = 6
	matrices := []string{"ldoor", "Serena", "nlpkkt240"}
	for _, threads := range []int{1, 4} {
		for _, name := range matrices {
			entry, err := rcm.SuiteByName(name)
			if err != nil {
				b.Fatal(err)
			}
			m := entry.Build(scale)
			b.Run(fmt.Sprintf("t%d/%s", threads, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := rcm.Order(m, rcm.WithOrdering(rcm.AMD), rcm.WithThreads(threads)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOrderComponents measures Order on the component-heavy generator
// suite with the shared backend, scheduling off versus on. The scheduler's
// acceptance bar is a ≥1.5× speedup on these inputs (see the
// ablation-components experiment for the standalone measurement); here the
// same comparison rides the standard benchmark harness so CI's perf
// trajectory tracks it.
func BenchmarkOrderComponents(b *testing.B) {
	suites := []struct {
		name string
		m    *rcm.Matrix
	}{
		{"smallstorm", rcm.MultiComponent(0, 1500, 64, 11)},
		{"giant+debris", rcm.MultiComponent(80, 800, 64, 12)},
	}
	modes := []struct {
		name string
		opts []rcm.Option
	}{
		{"sched=off", []rcm.Option{rcm.WithBackend(rcm.Shared), rcm.WithThreads(4)}},
		{"sched=on", []rcm.Option{rcm.WithBackend(rcm.Shared), rcm.WithThreads(4), rcm.WithComponentScheduling(0)}},
	}
	for _, s := range suites {
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s/%s", s.name, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				var last *rcm.Result
				for i := 0; i < b.N; i++ {
					res, err := rcm.Order(s.m, mode.opts...)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				if last != nil {
					b.ReportMetric(float64(last.Components), "components")
				}
			})
		}
	}
}
