package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/rcm"
	"repro/rcm/service"
)

// answer is what a client sees of one upload.
type answer struct {
	status int
	body   string
	xcache string
	key    string
}

// upload posts body under contentType to path on h through a recorder.
func upload(h http.Handler, path, contentType string, body []byte) answer {
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	r.Header.Set("Content-Type", contentType)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return answer{w.Code, w.Body.String(), w.Header().Get("X-Cache"), w.Header().Get("X-RCM-Key")}
}

// encodings returns a's upload bodies by content type.
func encodings(t testing.TB, a *rcm.Matrix) map[string][]byte {
	t.Helper()
	var mm, bin bytes.Buffer
	if err := rcm.WriteMatrixMarket(&mm, a, false); err != nil {
		t.Fatal(err)
	}
	if err := rcm.WriteBinary(&bin, a); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{service.ContentTypeMatrixMarket: mm.Bytes(), service.ContentTypeBinary: bin.Bytes()}
}

// jsonLine renders v the way the handler does.
func jsonLine(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// errorLine is the JSON error body the handler writes for err.
func errorLine(t *testing.T, err error) string {
	return jsonLine(t, map[string]string{"error": err.Error()})
}

// TestRepeatUploadMatchesFirst: with the ordering cached by Service.Order
// on the decoded matrix, the first upload of a body and its repeat get
// the same status, JSON, X-Cache and X-RCM-Key as that call does. Only
// the body index tells them apart: the first decodes, the repeat hits.
func TestRepeatUploadMatchesFirst(t *testing.T) {
	a, _ := rcm.Scramble(rcm.Grid2D(14, 11), 4)
	for ct, body := range encodings(t, a) {
		svc := service.New(service.Config{Workers: 1})
		h := service.NewHandler(svc)
		decoded, err := service.DecodeMatrix(ct, body)
		if err != nil {
			t.Fatal(err)
		}
		sp := service.Spec{Heuristic: "bi-criteria"}
		if _, err := svc.Order(context.Background(), decoded, sp); err != nil {
			t.Fatal(err)
		}
		direct, err := svc.Order(context.Background(), decoded, sp)
		if err != nil {
			t.Fatal(err)
		}
		want := answer{http.StatusOK, jsonLine(t, direct), "hit", direct.Key}

		first := upload(h, "/v1/order?heuristic=bi-criteria", ct, body)
		st := svc.Stats()
		if first != want {
			t.Errorf("%s: first upload %+v, want Service.Order's %+v", ct, first, want)
		}
		if st.IndexMisses != 1 || st.IndexHits != 0 || st.IndexEntries != 1 {
			t.Errorf("%s: first upload left index stats %+v, want 1 miss, 1 entry", ct, st.IndexStats)
		}
		repeat := upload(h, "/v1/order?heuristic=bi-criteria", ct, body)
		after := svc.Stats()
		if repeat != first {
			t.Errorf("%s: repeat upload %+v, first %+v", ct, repeat, first)
		}
		if after.IndexHits != 1 || after.IndexMisses != 1 || after.IndexEntries != 1 {
			t.Errorf("%s: repeat left index stats %+v, want 1 hit, 1 miss, 1 entry", ct, after.IndexStats)
		}
		if after.Jobs != 1 {
			t.Errorf("%s: %d jobs, want the one Service.Order ran", ct, after.Jobs)
		}
		svc.Close()
	}
}

// TestFailedDecodeNotKept: a body that does not decode is refused with
// DecodeMatrix's error every time it is posted, and never indexed.
func TestFailedDecodeNotKept(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	h := service.NewHandler(svc)
	for _, c := range []struct{ ct, body string }{
		{service.ContentTypeMatrixMarket, "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n4 1\n"},
		{service.ContentTypeBinary, "RCMB and then nothing a decoder wants"},
	} {
		_, decodeErr := service.DecodeMatrix(c.ct, []byte(c.body))
		if decodeErr == nil {
			t.Fatalf("%s: fixture decodes", c.ct)
		}
		want := answer{http.StatusBadRequest, errorLine(t, decodeErr), "", ""}
		for i := 0; i < 2; i++ {
			if got := upload(h, "/v1/order", c.ct, []byte(c.body)); got != want {
				t.Errorf("%s post %d: %+v, want %+v", c.ct, i+1, got, want)
			}
		}
	}
	if st := svc.Stats(); st.IndexEntries != 0 || st.IndexMisses != 4 || st.IndexHits != 0 {
		t.Errorf("index stats %+v after four failed decodes, want 4 misses and no entry", st.IndexStats)
	}
}

// TestIndexKeysExactBytes: the index keys the exact bytes and their
// Content-Type. Changed bytes of the same pattern, or the same bytes under
// another Content-Type, are entries of their own that resolve to the same
// digest; Matrix Market text posted as RCMB is refused with RCMB's error
// even after the same bytes were indexed as text.
func TestIndexKeysExactBytes(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	h := service.NewHandler(svc)
	a, _ := rcm.Scramble(rcm.Grid2D(9, 9), 2)
	text := encodings(t, a)[service.ContentTypeMatrixMarket]
	first := upload(h, "/v1/order", service.ContentTypeMatrixMarket, text)
	if first.status != http.StatusOK || first.xcache != "miss" {
		t.Fatalf("first upload: %+v", first)
	}

	commented := bytes.Replace(text, []byte("\n"), []byte("\n% the same pattern\n"), 1)
	for i, c := range []struct {
		ct   string
		body []byte
	}{
		{service.ContentTypeMatrixMarket, commented},
		{"text/plain", text},
		{service.ContentTypeMatrixMarket + "; charset=utf-8", text},
	} {
		got := upload(h, "/v1/order", c.ct, c.body)
		if got.status != http.StatusOK || got.xcache != "hit" || got.key != first.key {
			t.Errorf("%q: %d X-Cache %q key %q, want a hit on %q", c.ct, got.status, got.xcache, got.key, first.key)
		}
		if st := svc.Stats(); st.IndexMisses != uint64(i+2) || st.IndexEntries != i+2 || st.IndexHits != 0 {
			t.Errorf("%q: index stats %+v, want a new entry", c.ct, st.IndexStats)
		}
	}

	_, binErr := service.DecodeMatrix(service.ContentTypeBinary, text)
	if binErr == nil {
		t.Fatal("Matrix Market text decodes as RCMB")
	}
	want := answer{http.StatusBadRequest, errorLine(t, binErr), "", ""}
	if got := upload(h, "/v1/order", service.ContentTypeBinary, text); got != want {
		t.Errorf("text as RCMB: %+v, want %+v", got, want)
	}
	if st := svc.Stats(); st.Jobs != 1 || st.IndexEntries != 4 {
		t.Errorf("jobs %d, index entries %d; want 1 and 4", st.Jobs, st.IndexEntries)
	}
}

// TestKnownBodyNewStart: a known body under options not computed before
// resolves its digest from the index and decodes inside the ordering
// fill; the permutation is rcm.Order's.
func TestKnownBodyNewStart(t *testing.T) {
	a, _ := rcm.Scramble(rcm.Grid2D(12, 10), 6)
	for ct, body := range encodings(t, a) {
		svc := service.New(service.Config{Workers: 1})
		h := service.NewHandler(svc)
		if got := upload(h, "/v1/order", ct, body); got.status != http.StatusOK {
			t.Fatalf("%s: %+v", ct, got)
		}
		for _, start := range []int{0, 37, 119} {
			got := upload(h, "/v1/order?start="+strconv.Itoa(start), ct, body)
			if got.status != http.StatusOK || got.xcache != "miss" {
				t.Fatalf("%s start %d: %+v", ct, start, got)
			}
			var resp service.Response
			if err := json.Unmarshal([]byte(got.body), &resp); err != nil {
				t.Fatal(err)
			}
			want, err := rcm.Order(a, rcm.WithStartVertex(start))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resp.Perm, want.Perm) {
				t.Errorf("%s start %d: permutation differs from rcm.Order", ct, start)
			}
		}
		if st := svc.Stats(); st.IndexMisses != 1 || st.IndexHits != 3 || st.Jobs != 4 {
			t.Errorf("%s: index %+v, jobs %d; want 1 miss, 3 hits, 4 jobs", ct, st.IndexStats, st.Jobs)
		}
		svc.Close()
	}
}

// TestKnownBodyComponents: /v1/components resolves through the same
// index as /v1/order, so a body first posted for an ordering is known to
// the components analysis, which decodes inside its fill.
func TestKnownBodyComponents(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	h := service.NewHandler(svc)
	a := rcm.Disconnected(rcm.Path(7), rcm.Grid2D(4, 4))
	body := encodings(t, a)[service.ContentTypeBinary]
	upload(h, "/v1/order", service.ContentTypeBinary, body)
	got := upload(h, "/v1/components", service.ContentTypeBinary, body)
	direct, err := svc.Components(context.Background(), a, 0)
	if err != nil {
		t.Fatal(err)
	}
	direct.Cached = false
	if want := (answer{http.StatusOK, jsonLine(t, direct), "miss", direct.Key}); got != want {
		t.Errorf("components of a known body: %+v, want %+v", got, want)
	}
	if st := svc.Stats(); st.IndexHits != 1 || st.IndexMisses != 1 {
		t.Errorf("index stats %+v, want 1 hit, 1 miss", st.IndexStats)
	}
}

// TestChunkedUploadOverCap: a body that declares no length and runs past
// MaxUploadBytes gets 413 in both formats. Text bodies used to stream into
// the parser, which saw the cut as a malformed line and answered 400.
func TestChunkedUploadOverCap(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, MaxUploadBytes: 1024})
	defer svc.Close()
	h := service.NewHandler(svc)
	for ct, body := range encodings(t, rcm.Grid2D(30, 30)) {
		if len(body) <= 1024 {
			t.Fatalf("%s: %d-byte body fits the cap", ct, len(body))
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/order", io.NopCloser(bytes.NewReader(body)))
		r.Header.Set("Content-Type", ct)
		r.ContentLength = -1
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(w.Body.String(), "request body too large") {
			t.Errorf("%s: HTTP %d %s, want 413", ct, w.Code, strings.TrimSpace(w.Body.String()))
		}
	}
	if st := svc.Stats(); st.IndexMisses+st.IndexHits != 0 {
		t.Errorf("a refused body reached the index: %+v", st.IndexStats)
	}
}

// maxFuzzRows bounds the size line FuzzHandlerRepeat lets through: the
// Matrix Market reader builds a row pointer per declared row, and the
// property under test is the index, not that allocation.
const maxFuzzRows = 1 << 16

// declaredRows is the row count of a Matrix Market size line, 0 if the
// body has none that parses.
func declaredRows(body []byte) int {
	lines := strings.Split(string(body), "\n")
	for _, line := range lines[min(1, len(lines)):] {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "%") {
			continue
		}
		n, _ := strconv.Atoi(f[0])
		return n
	}
	return 0
}

// FuzzHandlerRepeat: any bytes posted twice to one handler, under either
// content type, get the same status and body both times, and a 400 for a
// body that does not decode carries DecodeMatrix's error. The cache is off,
// so the repeat resolves its digest from the index and orders afresh.
func FuzzHandlerRepeat(f *testing.F) {
	enc := encodings(f, rcm.Path(6))
	f.Add(enc[service.ContentTypeMatrixMarket], false)
	f.Add(enc[service.ContentTypeBinary], true)
	f.Add(enc[service.ContentTypeMatrixMarket], true)
	f.Add([]byte("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.5\n3 3 -1\n"), false)
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n"), false)
	f.Add([]byte("not a matrix"), false)
	f.Add([]byte{}, true)
	svc := service.New(service.Config{Workers: 1, CacheBytes: -1})
	f.Cleanup(svc.Close)
	h := service.NewHandler(svc)
	f.Fuzz(func(t *testing.T, body []byte, binary bool) {
		ct := service.ContentTypeMatrixMarket
		if binary {
			ct = service.ContentTypeBinary
		} else if declaredRows(body) > maxFuzzRows {
			t.Skip("size line declares more rows than the harness allocates")
		}
		first := upload(h, "/v1/order", ct, body)
		if again := upload(h, "/v1/order", ct, body); again != first {
			t.Fatalf("repeat answered %+v, first %+v", again, first)
		}
		if _, err := service.DecodeMatrix(ct, body); err != nil {
			if want := errorLine(t, err); first.status != http.StatusBadRequest || first.body != want {
				t.Fatalf("undecodable body answered %d %q, want 400 %q", first.status, first.body, want)
			}
		}
	})
}
