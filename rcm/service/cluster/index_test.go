package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/rcm"
	"repro/rcm/service"
)

// flightKeyFor is the flight key the proxy builds for request r carrying
// body: the resolved cache key, the service.BodyKey of the request bytes
// and the raw query.
func flightKeyFor(key string, r *http.Request, body []byte) string {
	return flightKey(key, service.BodyKey(r.Header.Get("Content-Type"), body), r.URL.RawQuery)
}

// postKeyless sends an order request without X-RCM-Key, so the proxy
// resolves the key from the body.
func postKeyless(t *testing.T, ts *httptest.Server, contentType string, body []byte) (*http.Response, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/order", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, string(b)
}

// TestProxyKeylessIndexed: a keyless request for a body the proxy has
// resolved before goes to the same replica under the same key without a
// decode; a body that does not decode is refused with DecodeMatrix's
// error and never indexed; a bad query or an unsupported Content-Type is
// refused before the index is consulted.
func TestProxyKeylessIndexed(t *testing.T) {
	a, b := newStubReplica(t, "a", nil), newStubReplica(t, "b", nil)
	p := newTestProxy(t, Config{}, a, b)
	ts := httptest.NewServer(p)
	defer ts.Close()

	m, _ := rcm.Scramble(rcm.Grid2D(10, 8), 1)
	var text bytes.Buffer
	if err := rcm.WriteMatrixMarket(&text, m, true); err != nil {
		t.Fatal(err)
	}
	wantKey, err := service.OrderKey(m.Digest(), service.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	first, _ := postKeyless(t, ts, service.ContentTypeMatrixMarket, text.Bytes())
	for i := 0; i < 2; i++ {
		again, _ := postKeyless(t, ts, service.ContentTypeMatrixMarket, text.Bytes())
		if again.StatusCode != http.StatusOK || again.Header.Get("X-RCM-Key") != wantKey ||
			again.Header.Get("X-RCM-Replica") != first.Header.Get("X-RCM-Replica") {
			t.Errorf("repeat %d: HTTP %d key %q replica %q; want key %q on %q", i, again.StatusCode,
				again.Header.Get("X-RCM-Key"), again.Header.Get("X-RCM-Replica"), wantKey, first.Header.Get("X-RCM-Replica"))
		}
	}
	if home := p.Ring().Pick(wantKey); first.Header.Get("X-RCM-Replica") != home {
		t.Errorf("keyless request served by %q, want the key's home %q", first.Header.Get("X-RCM-Replica"), home)
	}
	if st := p.RoutingStats(); st.IndexMisses != 1 || st.IndexHits != 2 || st.IndexEntries != 1 {
		t.Errorf("index stats %+v, want 1 miss, 2 hits, 1 entry", st.IndexStats)
	}

	// A request that echoes its key never consults the index.
	postBody(t, ts, wantKey, text.String())
	if st := p.RoutingStats(); st.IndexMisses+st.IndexHits != 3 {
		t.Errorf("a keyed request reached the index: %+v", st.IndexStats)
	}

	garbage := []byte("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n")
	_, decodeErr := service.DecodeMatrix(service.ContentTypeMatrixMarket, garbage)
	for i := 0; i < 2; i++ {
		resp, body := postKeyless(t, ts, service.ContentTypeMatrixMarket, garbage)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, decodeErr.Error()) {
			t.Errorf("undecodable body: HTTP %d %s, want 400 %q", resp.StatusCode, body, decodeErr)
		}
	}
	if st := p.RoutingStats(); st.IndexEntries != 1 || st.IndexMisses != 3 {
		t.Errorf("index stats %+v after two failed decodes, want 3 misses and still 1 entry", st.IndexStats)
	}
	resp, body := postKeyless(t, ts, "image/png", text.Bytes())
	var refused httpError
	json.Unmarshal([]byte(body), &refused)
	if _, ctErr := service.DecodeMatrix("image/png", text.Bytes()); resp.StatusCode != http.StatusUnsupportedMediaType || refused.Error != ctErr.Error() {
		t.Errorf("unsupported Content-Type: HTTP %d %s, want 415 %q", resp.StatusCode, body, ctErr)
	}
	bad, err := ts.Client().Post(ts.URL+"/v1/order?bogus=1", service.ContentTypeMatrixMarket, bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query: HTTP %d, want 400", bad.StatusCode)
	}
	if st := p.RoutingStats(); st.IndexHits != 2 || st.IndexMisses != 3 {
		t.Errorf("a request refused before the lookup reached the index: %+v", st.IndexStats)
	}
	if n := a.calls.Load() + b.calls.Load(); n != 4 {
		t.Errorf("replicas saw %d calls, want 4 (nothing for the undecodable body)", n)
	}
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"rcm_proxy_body_index_hits_total 2\n",
		"rcm_proxy_body_index_misses_total 3\n",
		"rcm_proxy_body_index_entries 1\n",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("proxy /metrics missing %q", want)
		}
	}
}
