// Package detmap is the sanctioned way to iterate a map in the
// determinism-critical packages. rcmlint's mapiter check (internal/lint)
// flags every direct `range` over a map in those packages, because Go's
// randomized map iteration order would otherwise leak into rendered
// output — Prometheus text, /v1/stats aggregation, fingerprints — and
// break the repo's byte-identity contract. Code that genuinely needs to
// walk a map calls Keys and iterates the sorted result; this
// package itself is excluded from the mapiter configuration, so the one
// raw map range below is the only one the suite permits.
package detmap

import (
	"cmp"
	"slices"
)

// Keys returns m's keys in ascending order. Iterating `for _, k := range
// detmap.Keys(m)` visits entries in a deterministic order at any map size
// and across processes, which is the property the mapiter check enforces.
func Keys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
