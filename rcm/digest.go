package rcm

import (
	"strconv"

	"repro/internal/spmat"
)

// Digest returns a content hash of the matrix pattern: a hex SHA-256 over
// the canonical CSR form (dimension, row pointers, column indices). Two
// matrices have equal digests exactly when their sparsity patterns are
// identical — numeric values are excluded on purpose, because nothing an
// ordering Result reports depends on them. The digest is the matrix half of
// an ordering cache key (see OptionsFingerprint and package
// repro/rcm/service); it is memoized, so repeated requests on one Matrix
// hash the pattern only once. A matrix read by the streaming ReadBinary
// arrives with the digest pre-seeded, hashed while the stream went by;
// every other matrix, ReadBinaryBytes and OpenBinary included, hashes its
// pattern here on first use, so a caller that never keys on it never pays.
func (m *Matrix) Digest() string {
	m.digestOnce.Do(func() { m.digestVal = spmat.PatternDigest(m.csr) })
	return m.digestVal
}

// OptionsFingerprint renders the fully resolved option set as a canonical
// string: two option lists fingerprint equally exactly when Order would
// behave identically under them (same backend, parallel configuration,
// heuristic, direction, sort mode, thresholds, seed and flags), regardless
// of option order or of spelled-out versus defaulted values. Together with
// Matrix.Digest it forms a content-addressed cache key for ordering
// results; repro/rcm/service keys its result cache with exactly this pair.
//
// The fingerprint is intentionally conservative: it includes options such
// as Procs and Threads that change only the modelled Breakdown, never the
// permutation, because the cached Result carries those too.
//
// The rendering is strconv appends into one reused buffer, not fmt: the
// service computes a fingerprint on every request, and on the cache hit
// path the fingerprint is most of the work — profiling showed
// fmt.Fprintf's interface walking at ~3/4 of the hit latency. The byte
// layout is pinned by tests; cache keys depend on it.
func OptionsFingerprint(opts ...Option) string {
	c := defaultConfig()
	for _, o := range opts {
		o(&c)
	}
	b := make([]byte, 0, 192)
	// rcmopt/3: the ord= term shards cache keys by ordering family — an AMD
	// result and an RCM result for the same digest are distinct entries
	// everywhere a fingerprint travels (service cache, proxy routing ring).
	b = append(b, "rcmopt/3 ord="...)
	b = append(b, c.ordering.String()...)
	b = append(b, " backend="...)
	b = append(b, c.backend.String()...)
	b = append(b, " sort="...)
	b = append(b, c.sortMode.String()...)
	b = append(b, " heuristic="...)
	b = append(b, c.heuristic.String()...)
	b = append(b, " direction="...)
	b = append(b, c.direction.String()...)
	b = append(b, " dir="...)
	b = strconv.AppendInt(b, int64(c.dirAlpha), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(c.dirBeta), 10)
	b = append(b, " bc="...)
	b = strconv.AppendInt(b, int64(c.bcWidthW), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(c.bcHeightW), 10)
	b = append(b, '/')
	b = strconv.AppendBool(b, c.bcSet)
	b = append(b, " start="...)
	b = strconv.AppendInt(b, int64(c.start), 10)
	b = append(b, " procs="...)
	b = strconv.AppendInt(b, int64(c.procs), 10)
	b = append(b, " threads="...)
	b = strconv.AppendInt(b, int64(c.threads), 10)
	b = append(b, " seed="...)
	b = strconv.AppendInt(b, c.seed, 10)
	b = append(b, " hyper="...)
	b = strconv.AppendBool(b, c.hypersparse)
	b = append(b, " norev="...)
	b = strconv.AppendBool(b, c.noReverse)
	b = append(b, " sym="...)
	b = strconv.AppendBool(b, c.symmetrize)
	b = append(b, " comp="...)
	b = strconv.AppendBool(b, c.compSched)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(c.compThresh), 10)
	return string(b)
}
