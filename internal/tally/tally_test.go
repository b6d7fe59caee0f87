package tally

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPhaseStrings(t *testing.T) {
	names := map[Phase]string{
		PeripheralSpMSpV: "peripheral-spmspv",
		PeripheralOther:  "peripheral-other",
		OrderingSpMSpV:   "ordering-spmspv",
		OrderingSort:     "ordering-sort",
		OrderingOther:    "ordering-other",
		Setup:            "setup",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d: %q", p, p.String())
		}
	}
	if Phase(200).String() == "" {
		t.Error("unknown phase renders empty")
	}
}

func TestEdisonDefaults(t *testing.T) {
	m := Edison()
	if m.AlphaNs <= 0 || m.BetaNsPerWord <= 0 || m.CompNsPerUnit <= 0 || m.Threads != 1 {
		t.Errorf("bad defaults: %+v", m)
	}
}

func TestWithThreads(t *testing.T) {
	m := Edison()
	h := m.WithThreads(6)
	if h.Threads != 6 {
		t.Errorf("threads = %d", h.Threads)
	}
	if m.Threads != 1 {
		t.Error("WithThreads mutated the receiver")
	}
	if m.WithThreads(0).Threads != 1 {
		t.Error("threads clamped to 1")
	}
}

func TestCostModelShapes(t *testing.T) {
	m := &Model{AlphaNs: 100, BetaNsPerWord: 2, CompNsPerUnit: 1, Threads: 1}
	if c := m.AllGatherCost(1, 100); c != 0 {
		t.Errorf("single-rank allgather cost %f", c)
	}
	// log term: 4 ranks -> 2 alphas.
	if c := m.AllGatherCost(4, 10); c != 100*2+2*10 {
		t.Errorf("allgather cost %f", c)
	}
	if c := m.AllToAllCost(4, 10); c != 100*3+2*10 {
		t.Errorf("alltoall cost %f", c)
	}
	// A neighbourhood exchange pays α per non-empty message, not per peer.
	if c := m.NeighborCost(2, 10); c != 100*2+2*10 {
		t.Errorf("neighbor cost %f", c)
	}
	if c := m.AllReduceCost(4, 1); c != 2*100*2+2*2*1 {
		t.Errorf("allreduce cost %f", c)
	}
	if c := m.P2PCost(5); c != 100+10 {
		t.Errorf("p2p cost %f", c)
	}
	if c := m.BarrierCost(8); c != 300 {
		t.Errorf("barrier cost %f", c)
	}
	// AllToAll latency grows linearly in q while AllGather grows
	// logarithmically: the root cause of SORTPERM dominating at high
	// concurrency (Fig. 4).
	if m.AllToAllCost(1024, 0) <= 10*m.AllGatherCost(1024, 0) {
		t.Error("alltoall latency should dwarf allgather latency at high q")
	}
}

func TestStatsWorkAdvancesClock(t *testing.T) {
	m := &Model{AlphaNs: 1, BetaNsPerWord: 1, CompNsPerUnit: 10, Threads: 2}
	s := NewStats(m)
	s.SetPhase(OrderingSpMSpV)
	s.AddWork(100)
	if got := s.ClockNs(); got != 500 { // 100*10/2
		t.Errorf("clock = %f", got)
	}
	if s.CompNs[OrderingSpMSpV] != 500 {
		t.Errorf("phase comp = %f", s.CompNs[OrderingSpMSpV])
	}
	if s.Work != 100 {
		t.Errorf("work = %d", s.Work)
	}
	s.AddWork(0)
	s.AddWork(-5)
	if s.Work != 100 {
		t.Error("non-positive work counted")
	}
}

func TestCommSyncAttributesWait(t *testing.T) {
	s := NewStats(Edison())
	s.SetPhase(PeripheralSpMSpV)
	s.AddWork(1) // clock = 25
	s.CommSync(1000, 500, 3, 64)
	if s.ClockNs() != 1500 {
		t.Errorf("clock = %f", s.ClockNs())
	}
	// Wait (1000-25) plus cost (500) in the comm bucket.
	if got := s.CommNs[PeripheralSpMSpV]; math.Abs(got-1475) > 1e-9 {
		t.Errorf("comm = %f", got)
	}
	if s.Msgs != 3 || s.Words != 64 {
		t.Errorf("traffic %d/%d", s.Msgs, s.Words)
	}
	// Sync in the past must not move the clock backwards.
	s.CommSync(0, 0, 0, 0)
	if s.ClockNs() != 1500 {
		t.Error("clock went backwards")
	}
}

func TestTotals(t *testing.T) {
	s := NewStats(Edison())
	s.SetPhase(OrderingSort)
	s.AddWork(4)
	s.CommSync(s.ClockNs(), 100, 1, 8)
	if s.TotalCompNs() != 100 { // 4*25
		t.Errorf("total comp = %f", s.TotalCompNs())
	}
	if s.TotalCommNs() != 100 {
		t.Errorf("total comm = %f", s.TotalCommNs())
	}
}

func TestCollect(t *testing.T) {
	m := Edison()
	a, b := NewStats(m), NewStats(m)
	a.SetPhase(OrderingSpMSpV)
	a.AddWork(10)
	b.SetPhase(OrderingSpMSpV)
	b.AddWork(30)
	br := Collect([]*Stats{a, b})
	if br.Ranks != 2 {
		t.Errorf("ranks = %d", br.Ranks)
	}
	if br.ClockNs != 30*m.CompNsPerUnit {
		t.Errorf("makespan = %f", br.ClockNs)
	}
	if br.CompNs[OrderingSpMSpV] != 20*m.CompNsPerUnit {
		t.Errorf("mean comp = %f", br.CompNs[OrderingSpMSpV])
	}
	if br.Work != 40 {
		t.Errorf("work = %d", br.Work)
	}
	if br.TotalNs() != br.PhaseNs(OrderingSpMSpV) {
		t.Error("total != only-phase")
	}
	if Collect(nil).Ranks != 0 {
		t.Error("empty collect")
	}
}

func TestSweepCounters(t *testing.T) {
	m := Edison()
	a, b := NewStats(m), NewStats(m)
	// Every rank of a run records the same sweeps; Collect takes the max,
	// not the sum.
	for _, s := range []*Stats{a, b} {
		s.AddSweep(false)
		s.AddSweep(true)
		s.AddSweep(true)
	}
	if a.PeripheralSweeps != 3 || a.CandidateSweeps != 2 {
		t.Errorf("per-rank counters = %d/%d", a.PeripheralSweeps, a.CandidateSweeps)
	}
	br := Collect([]*Stats{a, b})
	if br.PeripheralSweeps != 3 || br.CandidateSweeps != 2 {
		t.Errorf("aggregated counters = %d/%d, want max not sum", br.PeripheralSweeps, br.CandidateSweeps)
	}
}

func TestBreakdownSpMSpVSplit(t *testing.T) {
	s := NewStats(Edison())
	s.SetPhase(PeripheralSpMSpV)
	s.AddWork(2)
	s.CommSync(s.ClockNs(), 10, 1, 1)
	s.SetPhase(OrderingSpMSpV)
	s.AddWork(4)
	s.CommSync(s.ClockNs(), 20, 1, 1)
	b := Collect([]*Stats{s})
	if b.SpMSpVCompNs() != 6*25 {
		t.Errorf("spmspv comp = %f", b.SpMSpVCompNs())
	}
	if b.SpMSpVCommNs() != 30 {
		t.Errorf("spmspv comm = %f", b.SpMSpVCommNs())
	}
}

func TestSeconds(t *testing.T) {
	if Seconds(2.5e9) != 2.5 {
		t.Error("seconds conversion")
	}
}

func TestQuickClockMonotone(t *testing.T) {
	f := func(work []int8, syncs []int8) bool {
		s := NewStats(Edison())
		prev := 0.0
		for i := range work {
			s.AddWork(int64(work[i]))
			if i < len(syncs) {
				s.CommSync(float64(syncs[i]), 1, 1, 1)
			}
			if s.ClockNs() < prev {
				return false
			}
			prev = s.ClockNs()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
