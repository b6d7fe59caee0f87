package core

import (
	"runtime"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/par"
	"repro/internal/spmat"
)

// withBadColumn returns a copy of a whose middle row's first column index
// is 10·N, an index every engine trips over on a goroutine of its own.
func withBadColumn(a *spmat.CSR) *spmat.CSR {
	b := &spmat.CSR{N: a.N, RowPtr: a.RowPtr, Col: append([]int(nil), a.Col...)}
	b.Col[b.RowPtr[a.N/2]] = 10 * a.N
	return b
}

// TestEnginePanicReachesCaller: an engine that faults on one of the
// goroutines it starts — a rank, a shared-memory worker, the component
// scan — re-panics on the caller's goroutine with a *par.Panic carrying the
// runtime error, instead of killing the process.
func TestEnginePanicReachesCaller(t *testing.T) {
	withThreads(t, 4)
	mesh := withBadColumn(graphgen.Grid2D(30, 30))
	multi := withBadColumn(graphgen.MultiComponent(64, 40, 9, 5))
	dist4 := func(a *spmat.CSR, opt Options) *Ordering {
		return &Distributed(a, DistOptions{Procs: 4, Options: opt}).Ordering
	}
	cases := map[string]func(){
		"distributed/p4": func() { dist4(mesh, DefaultOptions()) },
		"shared/t4":      func() { SharedOpt(mesh, 4, DefaultOptions()) },
		"scheduled/w4":   func() { ScheduledOrder(multi, ScheduleOptions{Workers: 4, Options: DefaultOptions(), Big: dist4}) },
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			r := func() (r any) {
				defer func() { r = recover() }()
				run()
				return nil
			}()
			p, ok := r.(*par.Panic)
			if !ok {
				t.Fatalf("recovered %#v, want a *par.Panic", r)
			}
			if _, ok := p.Value.(runtime.Error); !ok {
				t.Fatalf("*par.Panic carries %#v, want a runtime.Error", p.Value)
			}
		})
	}
}
