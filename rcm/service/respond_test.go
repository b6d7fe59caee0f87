package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/memo"
)

// TestRespondStatus pins the result handlers' one error mapping: 503 once
// closed, 500 for a panicking computation, 400 for everything else (the
// facade rejecting a configuration or matrix), nothing at all for a client
// that went away, and the X-Cache/X-RCM-Key labels on success.
func TestRespondStatus(t *testing.T) {
	live := httptest.NewRequest(http.MethodPost, "/v1/order", nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gone := live.WithContext(ctx)
	for _, c := range []struct {
		name   string
		r      *http.Request
		err    error
		status int
	}{
		{"closed", live, ErrClosed, http.StatusServiceUnavailable},
		{"panicked", live, &memo.PanicError{Key: "k", Value: "boom"}, http.StatusInternalServerError},
		{"rejected", live, errors.New("rcm: procs must be a perfect square"), http.StatusBadRequest},
		{"client gone", gone, context.Canceled, 0},
	} {
		w := httptest.NewRecorder()
		respond(w, c.r, (*Response)(nil), c.err)
		switch {
		case c.status == 0 && w.Body.Len() != 0:
			t.Errorf("%s: wrote %q to a client that went away", c.name, w.Body.String())
		case c.status != 0 && (w.Code != c.status || !strings.Contains(w.Body.String(), `"error"`)):
			t.Errorf("%s: HTTP %d %q, want %d with a JSON error", c.name, w.Code, w.Body.String(), c.status)
		}
	}

	for _, c := range []struct {
		resp  served
		cache string
	}{
		{&Response{Key: "k1"}, "miss"},
		{&Response{Key: "k1", Cached: true}, "hit"},
		{&ComponentsResponse{Key: "k2", Deduped: true}, "dedup"},
	} {
		w := httptest.NewRecorder()
		respond(w, live, c.resp, nil)
		key, _, _ := c.resp.served()
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != c.cache || w.Header().Get("X-RCM-Key") != key {
			t.Errorf("%s: HTTP %d X-Cache=%q X-RCM-Key=%q, want 200 %s %s",
				key, w.Code, w.Header().Get("X-Cache"), w.Header().Get("X-RCM-Key"), c.cache, key)
		}
	}
}
