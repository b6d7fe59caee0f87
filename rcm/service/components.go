package service

import (
	"context"
	"fmt"

	"repro/internal/memo"
	"repro/rcm"
)

// componentsKeySuffix versions the components cache entries so the key
// space never collides with ordering results (those end in an options
// fingerprint, which never contains this tag).
const componentsKeySuffix = "|components/1"

// ComponentsKey returns the content-addressed cache key a components
// request resolves to for a matrix with the given pattern digest. The
// result is independent of the thread count, so the digest alone (plus a
// result-kind tag) addresses it. Exported for routing tiers (package
// cluster), which shard component requests by the same key the replica
// will cache them under.
func ComponentsKey(digest string) string { return digest + componentsKeySuffix }

// ComponentsResponse is one served connected-components analysis.
// Labels and Sizes are shared with the service's cache — treat them as
// read-only.
type ComponentsResponse struct {
	// Key is the content-addressed cache key (matrix digest + result kind).
	Key string `json:"key"`
	// Cached reports a cache hit; Deduped a request coalesced onto an
	// identical in-flight analysis.
	Cached  bool `json:"cached"`
	Deduped bool `json:"deduped"`
	// N and NNZ describe the analyzed matrix.
	N   int `json:"n"`
	NNZ int `json:"nnz"`
	// Count is the number of connected components; LargestSize and
	// SmallestSize bound the component sizes.
	Count        int `json:"count"`
	LargestSize  int `json:"largestSize"`
	SmallestSize int `json:"smallestSize"`
	// Sizes holds the vertex count per component, indexed by label.
	Sizes []int `json:"sizes"`
	// Labels holds the component id per vertex (omitted over HTTP with
	// ?labels=0).
	Labels []int `json:"labels,omitempty"`
}

// Components serves one connected-components analysis: from the cache when
// the matrix digest is known, by joining an identical in-flight analysis,
// and otherwise by computing it without a worker slot (the pass is a
// near-linear union-find sweep, far cheaper than an ordering, so it does
// not wait behind orderings). threads sizes the parallel pass; 0 uses all
// cores. The result is independent of threads, so the cache key is the
// matrix digest alone.
func (s *Service) Components(ctx context.Context, a *rcm.Matrix, threads int) (*ComponentsResponse, error) {
	if a == nil {
		return nil, fmt.Errorf("service: nil matrix")
	}
	key := ComponentsKey(a.Digest())
	shared, out, err := admit[ComponentsResponse](s, ctx, key, func() (any, error) { return runComponents(key, a, threads) })
	if err != nil {
		return nil, err
	}
	r := *shared
	r.Cached, r.Deduped = out == memo.Hit, out == memo.Shared
	return &r, nil
}

// runComponents is the components fill: it runs the analysis and shapes
// the response.
func runComponents(key string, a *rcm.Matrix, threads int) (*ComponentsResponse, error) {
	var opts []rcm.Option
	if threads > 0 {
		opts = append(opts, rcm.WithThreads(threads))
	}
	cc, err := rcm.ConnectedComponents(a, opts...)
	if err != nil {
		return nil, err
	}
	resp := &ComponentsResponse{
		Key:    key,
		N:      a.N(),
		NNZ:    a.NNZ(),
		Count:  cc.Count,
		Sizes:  cc.Sizes,
		Labels: cc.Label,
	}
	for i, sz := range cc.Sizes {
		if i == 0 || sz > resp.LargestSize {
			resp.LargestSize = sz
		}
		if i == 0 || sz < resp.SmallestSize {
			resp.SmallestSize = sz
		}
	}
	return resp, nil
}
