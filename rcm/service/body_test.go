package service

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestReadBodyPresize: readBody returns the body whatever the declared
// length says, and an honest declaration up to bodyPresizeMax is one
// exactly sized allocation with no regrowth.
func TestReadBodyPresize(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 7000) // 70 KB: past io.ReadAll's first regrowths
	cases := []struct {
		name     string
		declared int64
		allocs   float64 // -1: not pinned
	}{
		{"exact", int64(len(body)), 1},
		{"chunked", -1, -1},
		{"declared shorter", int64(len(body)) / 3, -1},
		{"declared longer", 5 * int64(len(body)), 1},
		{"declared zero", 0, -1},
	}
	for _, c := range cases {
		got, err := readBody(bytes.NewReader(body), c.declared)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%s: got %d bytes, err %v; want the %d-byte body", c.name, len(got), err, len(body))
		}
		if c.allocs < 0 {
			continue
		}
		r := bytes.NewReader(body)
		allocs := testing.AllocsPerRun(10, func() {
			r.Reset(body)
			readBody(r, c.declared)
		})
		if allocs != c.allocs {
			t.Errorf("%s: %v allocs/run, want %v", c.name, allocs, c.allocs)
		}
	}
	if got, err := readBody(bytes.NewReader(nil), 0); err != nil || len(got) != 0 {
		t.Errorf("empty body: %q, %v", got, err)
	}
}

// forgedLength is a 10-byte body whose Content-Length claims one byte
// under the upload cap max.
func forgedLength(max int64, contentType string) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/v1/order", strings.NewReader("0123456789"))
	r.Header.Set("Content-Type", contentType)
	r.ContentLength = max - 1
	return r
}

// TestReadBodyForgedLengthIsBounded: Content-Length is the client's word,
// so a short body declaring nearly the whole upload cap allocates at most
// bodyPresizeMax, not the declared gigabyte, and the request gets the
// status it always got — 400, because ten bytes are not a matrix.
func TestReadBodyForgedLengthIsBounded(t *testing.T) {
	svc := New(Config{Workers: 1}) // the default cap, 1 GiB
	defer svc.Close()
	// TotalAlloc is process-wide: the least of a few runs sheds what other
	// goroutines allocate meanwhile.
	least := uint64(math.MaxUint64)
	for range 5 {
		r := forgedLength(svc.cfg.MaxUploadBytes, ContentTypeBinary)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body, err := readBody(r.Body, r.ContentLength)
		runtime.ReadMemStats(&after)
		if err != nil || string(body) != "0123456789" {
			t.Fatalf("readBody = %q, %v", body, err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > bodyPresizeMax {
		t.Errorf("readBody allocated %d bytes for a 10-byte body, bound %d", least, bodyPresizeMax)
	}

	h := NewHandler(svc)
	for _, ct := range []string{ContentTypeBinary, ContentTypeMatrixMarket} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, forgedLength(svc.cfg.MaxUploadBytes, ct))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", ct, w.Code)
		}
	}
}

// TestReadBodyCap: ReadBody answers 413 for a declared length over the cap
// before reading, 413 for an undeclared body that runs past it, and 200
// with the bytes otherwise.
func TestReadBodyCap(t *testing.T) {
	for _, c := range []struct {
		name     string
		body     string
		declared int64
		status   int
	}{
		{"fits", "0123456789", 10, http.StatusOK},
		{"declared over cap", "0123456789", 11, http.StatusRequestEntityTooLarge},
		{"chunked over cap", "0123456789a", -1, http.StatusRequestEntityTooLarge},
		{"chunked fits", "0123456789", -1, http.StatusOK},
	} {
		r := httptest.NewRequest(http.MethodPost, "/", io.NopCloser(strings.NewReader(c.body)))
		r.ContentLength = c.declared
		body, status, err := ReadBody(httptest.NewRecorder(), r, 10)
		if status != c.status {
			t.Errorf("%s: status %d (err %v), want %d", c.name, status, err, c.status)
		}
		if c.status == http.StatusOK && (err != nil || string(body) != c.body) {
			t.Errorf("%s: body %q, err %v", c.name, body, err)
		}
	}
}
