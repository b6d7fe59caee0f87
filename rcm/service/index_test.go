package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/memo"
	"repro/rcm"
)

// newUpload keys body under contentType as the handler does.
func newUpload(contentType string, body []byte) *upload {
	return &upload{contentType: contentType, body: body, sum: BodyKey(contentType, body)}
}

func binaryBody(t *testing.T, a *rcm.Matrix) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rcm.WriteBinary(&b, a); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestDecodingRequestKeepsMatrix: the request whose lookup decodes a body
// for the index keeps the matrix for its own fill; a request whose lookup
// hit decodes the body itself, under its own Content-Type; a caller's
// matrix wins over both.
func TestDecodingRequestKeepsMatrix(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	body := binaryBody(t, rcm.Grid2D(6, 5))

	first := newUpload(ContentTypeBinary, body)
	digest, err := s.resolve(ctx, first)
	if err != nil || first.a == nil || digest != first.a.Digest() {
		t.Fatalf("first resolve: digest %q, err %v, kept %v", digest, err, first.a != nil)
	}
	if a, err := matrix(nil, first); err != nil || a != first.a {
		t.Errorf("the decoding request's fill decoded again (err %v)", err)
	}
	again := newUpload(ContentTypeBinary, body)
	if d, err := s.resolve(ctx, again); err != nil || d != digest || again.a != nil {
		t.Fatalf("repeat resolve: %q, %v, kept %v", d, err, again.a != nil)
	}
	a, err := matrix(nil, again)
	if err != nil || a == first.a || !a.Equal(first.a) {
		t.Errorf("fill for a known body: err %v, reused the first matrix %v", err, a == first.a)
	}
	if a, err := matrix(nil, newUpload("text/plain", body)); err == nil || a != nil {
		t.Error("RCMB bytes posted as text decoded")
	}
	held := rcm.Grid2D(3, 3)
	if a, err := matrix(held, first); err != nil || a != held {
		t.Errorf("a fill given a matrix computed on another (err %v)", err)
	}
}

// TestConcurrentFirstUploads: 16 concurrent first uploads of one body
// decode it once for the index — one index miss, 15 lookups sharing it —
// and run one job. The index's size function, which memo calls after the
// decode and before it releases the waiters, holds the decode until all 16
// wait on it.
func TestConcurrentFirstUploads(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	gate := make(chan struct{})
	s.index = &BodyIndex{cache: memo.New(bodyIndexBytes, func(key, digest string) int64 {
		<-gate
		return indexEntryBytes(key, digest)
	})}
	h := NewHandler(s)
	a, _ := rcm.Scramble(rcm.Grid2D(40, 30), 3)
	body := binaryBody(t, a)
	want, err := rcm.Order(a)
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := httptest.NewRequest(http.MethodPost, "/v1/order", bytes.NewReader(body))
			r.Header.Set("Content-Type", ContentTypeBinary)
			recs[i] = httptest.NewRecorder()
			h.ServeHTTP(recs[i], r)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for cs := s.index.cache.Stats(); cs.Misses+cs.Shared < n; cs = s.index.cache.Stats() {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("index stats %+v: the uploads never all reached the decode", cs)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if cs := s.index.cache.Stats(); cs.Misses != 1 || cs.Shared != n-1 || cs.Hits != 0 || cs.Entries != 1 {
		t.Errorf("index stats %+v, want 1 miss and %d shared", cs, n-1)
	}
	st := s.Stats()
	if st.IndexMisses != 1 || st.IndexHits != 0 || st.IndexEntries != 1 {
		t.Errorf("Stats reports the index as %+v", st.IndexStats)
	}
	if st.Jobs != 1 || st.Misses != 1 || st.Hits+st.Dedups != n-1 {
		t.Errorf("jobs %d, misses %d, hits+dedups %d; want 1, 1, %d", st.Jobs, st.Misses, st.Hits+st.Dedups, n-1)
	}
	var first Response
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("upload %d: HTTP %d %s", i, rec.Code, rec.Body.String())
		}
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		resp.Cached, resp.Deduped = false, false // the outcome is all that may differ
		if i == 0 {
			first = resp
		} else if !reflect.DeepEqual(resp, first) {
			t.Errorf("upload %d answered differently", i)
		}
	}
	if !reflect.DeepEqual(first.Perm, want.Perm) {
		t.Error("the shared answer's permutation is not rcm.Order's")
	}
}
