package service

import (
	"context"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/memo"
	"repro/rcm"
)

// TestResponseBytesAccounting pins the cache's byte accounting against the
// actual content of a response: every variable-size part (permutation, key
// string, modelled phases, component stats, labels) must move the estimate
// by exactly its resident size. The fleet sizing math in OPERATIONS.md
// divides node cache budgets by these numbers, so the deltas — not just a
// rough floor — are the contract.
func TestResponseBytesAccounting(t *testing.T) {
	base := &Response{Key: strings.Repeat("k", 100)}

	t.Run("perm slice", func(t *testing.T) {
		withPerm := &Response{Key: base.Key, Perm: make([]int, 1000)}
		if got, want := responseBytes(withPerm)-responseBytes(base), int64(8*1000); got != want {
			t.Errorf("1000 perm entries add %d bytes, want %d", got, want)
		}
	})
	t.Run("key string", func(t *testing.T) {
		longer := &Response{Key: base.Key + strings.Repeat("x", 57)}
		if got, want := responseBytes(longer)-responseBytes(base), int64(57); got != want {
			t.Errorf("57 extra key bytes add %d, want %d", got, want)
		}
	})
	t.Run("component stats", func(t *testing.T) {
		cs := &Response{Key: base.Key, ComponentStats: &rcm.ComponentStats{Count: 3}}
		want := int64(unsafe.Sizeof(rcm.ComponentStats{}))
		if got := responseBytes(cs) - responseBytes(base); got != want {
			t.Errorf("ComponentStats adds %d bytes, want %d", got, want)
		}
	})
	t.Run("modelled breakdown", func(t *testing.T) {
		md := &Response{Key: base.Key, Modeled: &rcm.Breakdown{
			Phases: []rcm.PhaseTime{{Name: "SpMSpV"}, {Name: "SORTPERM"}},
		}}
		want := int64(unsafe.Sizeof(rcm.Breakdown{})) +
			2*int64(unsafe.Sizeof(rcm.PhaseTime{})) + int64(len("SpMSpV")+len("SORTPERM"))
		if got := responseBytes(md) - responseBytes(base); got != want {
			t.Errorf("modelled breakdown adds %d bytes, want %d", got, want)
		}
	})
	t.Run("fixed part covers the struct and bookkeeping", func(t *testing.T) {
		floor := lruEntryOverheadBytes + int64(unsafe.Sizeof(Response{})) + int64(len(base.Key))
		if got := responseBytes(base); got != floor {
			t.Errorf("empty response accounts %d bytes, want the %d-byte floor", got, floor)
		}
	})

	t.Run("components response", func(t *testing.T) {
		cbase := &ComponentsResponse{Key: base.Key}
		full := &ComponentsResponse{Key: base.Key, Labels: make([]int, 500), Sizes: make([]int, 7)}
		if got, want := componentsBytes(full)-componentsBytes(cbase), int64(8*(500+7)); got != want {
			t.Errorf("labels+sizes add %d bytes, want %d", got, want)
		}
		floor := lruEntryOverheadBytes + int64(unsafe.Sizeof(ComponentsResponse{})) + int64(len(base.Key))
		if got := componentsBytes(cbase); got != floor {
			t.Errorf("empty components response accounts %d bytes, want %d", got, floor)
		}
	})
}

// TestCacheBytesMatchAccounting inserts entries and checks the cache's
// running byte total is exactly the sum of the per-entry estimates — the
// invariant eviction decisions and the /v1/stats bytes gauge rely on.
func TestCacheBytesMatchAccounting(t *testing.T) {
	c := memo.New(1<<30, entryBytes)
	var want int64
	for i, n := range []int{10, 100, 1000} {
		r := &Response{Key: strings.Repeat("a", 80+i), Perm: make([]int, n)}
		sz := responseBytes(r)
		if _, _, err := c.Get(context.Background(), r.Key, func() (any, error) { return r, nil }); err != nil {
			t.Fatal(err)
		}
		want += sz
	}
	if got := c.Stats().Bytes; got != want {
		t.Errorf("cache accounts %d bytes, want %d", got, want)
	}
}
