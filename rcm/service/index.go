package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"

	"repro/internal/memo"
	"repro/rcm"
)

// bodyIndexBytes is the fixed byte budget of one tier's body index: at
// indexEntryBytes' 280 bytes per entry, about 3,700 bodies. An entry is
// two hex strings, so the budget costs nothing worth tuning.
const bodyIndexBytes = 1 << 20

// BodyKey returns the body index key of an upload: the hex SHA-256 of its
// Content-Type header, a zero byte, and the body. The same bytes under
// another Content-Type are another key, since they may decode differently
// or not at all. The routing tier builds its flight keys from the same
// hash, so a proxied body is hashed once.
//
// SHA-256 rather than a faster hash because an entry answers for whoever
// sends those bytes next: a collision would hand one client's cache key,
// and so its result, to another client's matrix.
func BodyKey(contentType string, body []byte) string {
	h := sha256.New()
	io.WriteString(h, contentType)
	h.Write([]byte{0})
	h.Write(body)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// BodyIndex maps the BodyKey of an upload to the pattern digest those
// exact bytes decoded to, so a tier that has seen a body before learns its
// cache key from one SHA-256 pass and a map lookup instead of a decode.
// It keeps only the digest: the matrix would cost megabytes per entry and
// is needed only by a fill that must compute, which can decode the body it
// holds. A failed decode is never kept, so a bad body is decoded, and
// refused, afresh every time. Concurrent lookups of one new body share one
// decode. Entries are evicted least recently used under bodyIndexBytes.
// The rcmserve handler and the routing proxy each keep one.
type BodyIndex struct {
	cache *memo.Cache[string]
}

// NewBodyIndex returns an empty body index.
func NewBodyIndex() *BodyIndex {
	return &BodyIndex{cache: memo.New(bodyIndexBytes, indexEntryBytes)}
}

// Digest returns the pattern digest of body, uploaded under contentType
// with BodyKey sum: the indexed one, or else the digest of the matrix
// DecodeMatrix makes of body, whose error it returns unchanged. ctx bounds
// only this caller's wait, as in memo.Cache.Get.
func (x *BodyIndex) Digest(ctx context.Context, contentType, sum string, body []byte) (string, error) {
	return x.resolve(ctx, contentType, sum, body, nil)
}

// resolve is Digest handing the matrix to keep, when it is not nil, if
// this call decodes the body: keep runs on the fill's goroutine before
// the lookup returns.
func (x *BodyIndex) resolve(ctx context.Context, contentType, sum string, body []byte, keep func(*rcm.Matrix)) (string, error) {
	digest, _, err := x.cache.Get(ctx, sum, func() (string, error) {
		a, err := DecodeMatrix(contentType, body)
		if err != nil {
			return "", err
		}
		if keep != nil {
			keep(a)
		}
		return a.Digest(), nil
	})
	return digest, err
}

// IndexStats counts a body index's lookups by outcome and the bodies it
// holds.
type IndexStats struct {
	// IndexHits counts lookups that found the digest held, IndexMisses
	// those that decoded the body to learn it; a lookup that waited on a
	// concurrent decode of the same bytes counts in neither.
	IndexHits   uint64 `json:"indexHits"`
	IndexMisses uint64 `json:"indexMisses"`
	// IndexEntries is the number of bodies the index holds.
	IndexEntries int `json:"indexEntries"`
}

// Stats snapshots the index's counters.
func (x *BodyIndex) Stats() IndexStats {
	cs := x.cache.Stats()
	return IndexStats{IndexHits: cs.Hits, IndexMisses: cs.Misses, IndexEntries: cs.Entries}
}

// upload is one matrix upload a handler serves: its Content-Type header,
// its bytes and their BodyKey.
type upload struct {
	contentType string
	body        []byte
	sum         string
	// a is the matrix this request decoded for the body index, if it did.
	// The index's fill writes it before the lookup returns, and a result
	// fill reads it only after, on a goroutine started later.
	a *rcm.Matrix
}

// resolve returns the pattern digest of u's body through the body index,
// keeping the matrix in u when this request is the one that decodes it.
func (s *Service) resolve(ctx context.Context, u *upload) (string, error) {
	return s.index.resolve(ctx, u.contentType, u.sum, u.body, func(a *rcm.Matrix) { u.a = a })
}

// matrix returns the matrix a fill must compute on: a when the caller
// holds one, else the one u's request decoded for the index, else a decode
// of u's body. A request whose lookup hit, or waited on another upload of
// the same bytes, decodes here.
func matrix(a *rcm.Matrix, u *upload) (*rcm.Matrix, error) {
	switch {
	case a != nil:
		return a, nil
	case u.a != nil:
		return u.a, nil
	}
	return DecodeMatrix(u.contentType, u.body)
}
