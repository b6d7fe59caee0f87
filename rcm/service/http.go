package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/detmap"
	"repro/internal/memo"
	"repro/rcm"
)

// Matrix upload content types accepted by POST /v1/order.
const (
	// ContentTypeMatrixMarket is a Matrix Market coordinate body (also
	// accepted as text/plain or an unset content type).
	ContentTypeMatrixMarket = "application/x-matrix-market"
	// ContentTypeBinary is the RCMB compact binary body written by
	// rcm.WriteBinary (also accepted as application/octet-stream).
	ContentTypeBinary = "application/x-rcm-binary"
)

// NewHandler exposes a Service over HTTP:
//
//	POST /v1/order       order the matrix in the request body; options come
//	                     from the URL query (ordering, backend, procs,
//	                     threads, sort, heuristic, direction, diralpha,
//	                     dirbeta, widthweight, heightweight, start, seed,
//	                     hypersparse, noreverse, nosymmetrize, compsched,
//	                     compthreshold; perm=0 omits the permutation from
//	                     the response).
//	                     Body formats: Matrix Market text or RCMB binary,
//	                     selected by Content-Type.
//	POST /v1/components  connected components of the matrix in the request
//	                     body (same body formats); query: threads sizes the
//	                     parallel pass, labels=0 omits the per-vertex labels.
//	GET  /v1/stats       the Stats snapshot as JSON
//	GET  /metrics        the same counters in Prometheus text format
//	GET  /healthz        liveness probe (503 "draining" after SetDraining)
//
// Responses to /v1/order are the Response type as JSON and responses to
// /v1/components the ComponentsResponse type, both with an X-Cache header
// (hit | miss | dedup) for quick curl inspection and an X-RCM-Key header
// carrying the content-addressed cache key, so clients and routing tiers
// can pre-route repeat requests (see package cluster) and debug shard
// placement without recomputing digests. See OPERATIONS.md for the full
// API reference with examples.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/order", func(w http.ResponseWriter, r *http.Request) { handleOrder(s, w, r) })
	mux.HandleFunc("POST /v1/components", func(w http.ResponseWriter, r *http.Request) { handleComponents(s, w, r) })
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			// A draining replica still answers requests (finish what's in
			// flight), but advertises 503 here so a routing tier stops
			// sending it new work before the listener closes.
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// httpError is the JSON error body of every non-2xx response.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// readMatrixBody decodes the uploaded matrix of an ordering or components
// request, enforcing the upload cap and the accepted content types. On
// failure it writes the error response itself and returns nil.
//
// The upload cap (Config.MaxUploadBytes) bounds the request stream, not the
// decoded matrix — a compact binary body expands ~8-16× into CSR arrays,
// which OPERATIONS.md tells operators to budget for. The readers start
// from bounded hints (Content-Length buys at most bodyPresizeMax) and grow
// only as body bytes actually arrive, so a malicious header alone cannot
// balloon memory; the exception is a Matrix Market size line's dimension,
// for which the text reader builds that many row pointers. A declared
// Content-Length over the cap is refused before any decoding;
// MaxBytesReader enforces the same bound on chunked bodies that decline to
// declare one (there the text decoder may report the cut as a parse error —
// still a 4xx, just a less precise one).
func readMatrixBody(s *Service, w http.ResponseWriter, r *http.Request) *rcm.Matrix {
	if err := limitBody(w, r, s.cfg.MaxUploadBytes); err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge, httpError{err.Error()})
		return nil
	}
	binary, err := isBinary(r.Header.Get("Content-Type"))
	if err != nil {
		writeJSON(w, http.StatusUnsupportedMediaType, httpError{err.Error()})
		return nil
	}
	var a *rcm.Matrix
	if binary {
		// Buffer the body (already capped by MaxBytesReader) and decode
		// through the zero-copy parallel reader: the column decode fans
		// out across GOMAXPROCS and the cache-key digest is computed in
		// the same pass.
		var body []byte
		if body, err = readBody(r.Body, r.ContentLength); err == nil {
			a, err = rcm.ReadBinaryBytes(body, 0)
		}
	} else {
		a, _, err = rcm.ReadMatrixMarket(r.Body)
	}
	if err != nil {
		writeJSON(w, bodyStatus(err), httpError{err.Error()})
		return nil
	}
	return a
}

// ReadBody buffers a request body under the upload cap max, for a routing
// tier that forwards the bytes: the same cap checks, reader and error
// statuses the server applies to its own binary uploads. On failure it
// returns the status to answer with — 413 for a body over the cap,
// declared or actual, and 400 for any other read error.
func ReadBody(w http.ResponseWriter, r *http.Request, max int64) ([]byte, int, error) {
	if err := limitBody(w, r, max); err != nil {
		return nil, http.StatusRequestEntityTooLarge, err
	}
	body, err := readBody(r.Body, r.ContentLength)
	if err != nil {
		return nil, bodyStatus(err), err
	}
	return body, http.StatusOK, nil
}

// limitBody applies the upload cap max to r: a declared Content-Length over
// it is refused before anything is read, and otherwise r.Body is wrapped in
// http.MaxBytesReader, which cuts a body that declares no length at the
// same bound.
func limitBody(w http.ResponseWriter, r *http.Request, max int64) error {
	if r.ContentLength > max {
		return fmt.Errorf("request body %d bytes exceeds the %d-byte upload cap", r.ContentLength, max)
	}
	r.Body = http.MaxBytesReader(w, r.Body, max)
	return nil
}

// bodyStatus is the status of a failed body read or decode: 413 when
// MaxBytesReader cut the body at the cap, 400 otherwise.
func bodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// bodyPresizeMax bounds what readBody allocates on the word of a
// Content-Length header, which the client controls and the upload cap
// (1 GiB by default) barely constrains: a short body declaring a length
// near the cap costs at most this much, and a body declaring more grows
// past it only as its bytes arrive. 1 MiB holds typical uploads whole:
// the serving benchmark's bodies are 0.05–0.6 MB.
const bodyPresizeMax = 1 << 20

// readBody reads r to EOF into a buffer sized from the declared length
// (-1 when unknown). Up to bodyPresizeMax an honest body fills its buffer
// exactly, with one spare byte for the read that sees EOF, so it is never
// regrown or copied; io.ReadAll instead starts at 512 bytes and regrows a
// 600 KB body's buffer 25 times. Past the bound, or without a declared
// length, the buffer doubles as it fills, never beyond the declared length
// while the body keeps to it.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	size := int64(512)
	if declared >= 0 {
		size = min(declared+1, bodyPresizeMax)
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			grow := len(b)
			if rest := declared + 1 - int64(len(b)); rest > 0 && rest < int64(grow) {
				grow = int(rest)
			}
			b = append(make([]byte, 0, len(b)+grow), b...)
		}
	}
}

func handleOrder(s *Service, w http.ResponseWriter, r *http.Request) {
	sp, includePerm, err := specFromQuery(r.URL.Query())
	if err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{err.Error()})
		return
	}
	a := readMatrixBody(s, w, r)
	if a == nil {
		return
	}

	resp, err := s.Order(r.Context(), a, sp)
	if err == nil && !includePerm {
		trimmed := *resp
		trimmed.Perm = nil
		resp = &trimmed
	}
	respond(w, r, resp, err)
}

func handleComponents(s *Service, w http.ResponseWriter, r *http.Request) {
	threads, includeLabels := 0, true
	query := r.URL.Query()
	for _, key := range detmap.Keys(query) {
		vals := query[key]
		val := vals[len(vals)-1]
		switch key {
		case "threads":
			n, err := strconv.Atoi(val)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, httpError{fmt.Sprintf("service: bad threads %q: want an integer", val)})
				return
			}
			threads = n
		case "labels":
			includeLabels = val != "0" && val != "false"
		default:
			writeJSON(w, http.StatusBadRequest, httpError{fmt.Sprintf("service: unknown query parameter %q", key)})
			return
		}
	}
	a := readMatrixBody(s, w, r)
	if a == nil {
		return
	}

	resp, err := s.Components(r.Context(), a, threads)
	if err == nil && !includeLabels {
		trimmed := *resp
		trimmed.Labels = nil
		resp = &trimmed
	}
	respond(w, r, resp, err)
}

// served is what respond reads off a result to label it.
type served interface {
	served() (key string, cached, deduped bool)
}

func (r *Response) served() (string, bool, bool)           { return r.Key, r.Cached, r.Deduped }
func (r *ComponentsResponse) served() (string, bool, bool) { return r.Key, r.Cached, r.Deduped }

// respond is the one tail of /v1/order and /v1/components: the error's
// status, or the result as JSON with its X-Cache (hit | miss | dedup) and
// X-RCM-Key headers.
func respond(w http.ResponseWriter, r *http.Request, resp served, err error) {
	var panicked *memo.PanicError
	switch {
	case err == nil:
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, httpError{err.Error()})
		return
	case r.Context().Err() != nil:
		return // client went away; nothing useful to write
	case errors.As(err, &panicked):
		// memo logged the stack once, however many requests waited.
		writeJSON(w, http.StatusInternalServerError, httpError{err.Error()})
		return
	default:
		// Everything else is a rejected configuration or matrix: the
		// facade's validation layer speaks before any engine runs.
		writeJSON(w, http.StatusBadRequest, httpError{err.Error()})
		return
	}
	key, cached, deduped := resp.served()
	switch {
	case cached:
		w.Header().Set("X-Cache", "hit")
	case deduped:
		w.Header().Set("X-Cache", "dedup")
	default:
		w.Header().Set("X-Cache", "miss")
	}
	w.Header().Set("X-RCM-Key", key)
	writeJSON(w, http.StatusOK, resp)
}

// ErrUnsupportedContentType is wrapped by DecodeMatrix for content types
// the upload API does not accept (the HTTP layer maps it to 415).
var ErrUnsupportedContentType = errors.New("service: unsupported Content-Type")

// DecodeMatrix decodes a buffered matrix upload under the same
// Content-Type mapping POST /v1/order applies: Matrix Market text
// (ContentTypeMatrixMarket, text/plain, x-www-form-urlencoded or unset)
// or the RCMB compact binary (ContentTypeBinary, octet-stream). Exported
// for routing tiers (package cluster), which must decode a body to learn
// its cache key before a replica sees it; the server's own handler keeps
// streaming text bodies and never calls this.
func DecodeMatrix(contentType string, body []byte) (*rcm.Matrix, error) {
	binary, err := isBinary(contentType)
	switch {
	case err != nil:
		return nil, err
	case binary:
		return rcm.ReadBinaryBytes(body, 0)
	}
	a, _, err := rcm.ReadMatrixMarket(bytes.NewReader(body))
	return a, err
}

// isBinary is the one Content-Type mapping of matrix uploads: true selects
// the RCMB binary reader (ContentTypeBinary, octet-stream), false the
// Matrix Market text reader (ContentTypeMatrixMarket, text/plain,
// x-www-form-urlencoded — what curl --data-binary sends by default — or
// unset). Parameters such as "; charset=utf-8" are ignored; any other type
// is an error wrapping ErrUnsupportedContentType.
func isBinary(contentType string) (bool, error) {
	ct := contentType
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt
	}
	switch ct {
	case ContentTypeMatrixMarket, "text/plain", "application/x-www-form-urlencoded", "":
		return false, nil
	case ContentTypeBinary, "application/octet-stream":
		return true, nil
	}
	return false, fmt.Errorf("%w %q (want %s or %s)",
		ErrUnsupportedContentType, contentType, ContentTypeMatrixMarket, ContentTypeBinary)
}

// SpecFromQuery decodes the /v1/order query parameters into a Spec plus
// the perm-inclusion flag, rejecting unknown names and unparsable numbers
// exactly as the server's handler does. Exported so a routing tier can
// resolve a request's options — and from them, via Overlay and OrderKey,
// its cache key — without a Service.
func SpecFromQuery(q url.Values) (sp Spec, includePerm bool, err error) {
	return specFromQuery(q)
}

// specFromQuery decodes the ordering options of one request from its URL
// query. Unknown names and unparsable numbers are rejected; unknown values
// for known names are left to Spec.Options / rcm.Order, whose errors name
// the valid choices.
func specFromQuery(q url.Values) (sp Spec, includePerm bool, err error) {
	includePerm = true
	atoi := func(key, val string) (int, error) {
		n, err := strconv.Atoi(val)
		if err != nil {
			return 0, fmt.Errorf("service: bad %s %q: want an integer", key, val)
		}
		return n, nil
	}
	for _, key := range detmap.Keys(q) {
		vals := q[key]
		val := vals[len(vals)-1]
		switch key {
		case "ordering":
			sp.Ordering = val
		case "backend":
			sp.Backend = val
		case "sort":
			sp.Sort = val
		case "heuristic":
			sp.Heuristic = val
		case "direction":
			sp.Direction = val
		case "procs":
			if sp.Procs, err = atoi(key, val); err != nil {
				return sp, includePerm, err
			}
		case "threads":
			if sp.Threads, err = atoi(key, val); err != nil {
				return sp, includePerm, err
			}
		case "diralpha":
			if sp.DirAlpha, err = atoi(key, val); err != nil {
				return sp, includePerm, err
			}
		case "dirbeta":
			if sp.DirBeta, err = atoi(key, val); err != nil {
				return sp, includePerm, err
			}
		case "widthweight":
			if sp.WidthWeight, err = atoi(key, val); err != nil {
				return sp, includePerm, err
			}
		case "heightweight":
			if sp.HeightWeight, err = atoi(key, val); err != nil {
				return sp, includePerm, err
			}
		case "start":
			v, err := atoi(key, val)
			if err != nil {
				return sp, includePerm, err
			}
			sp.Start = &v
		case "seed":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return sp, includePerm, fmt.Errorf("service: bad seed %q: want an integer", val)
			}
			sp.Seed = v
		case "hypersparse":
			sp.Hypersparse = Bool(val != "0" && val != "false")
		case "noreverse":
			sp.NoReverse = Bool(val != "0" && val != "false")
		case "nosymmetrize":
			sp.NoSymmetrize = Bool(val != "0" && val != "false")
		case "compsched":
			sp.CompSched = Bool(val != "0" && val != "false")
		case "compthreshold":
			if sp.CompThreshold, err = atoi(key, val); err != nil {
				return sp, includePerm, err
			}
		case "perm":
			includePerm = val != "0" && val != "false"
		default:
			return sp, includePerm, fmt.Errorf("service: unknown query parameter %q", key)
		}
	}
	return sp, includePerm, nil
}

// writeMetrics renders the Stats snapshot in the Prometheus text exposition
// format (counters, gauges, and one latency histogram per backend).
func writeMetrics(w http.ResponseWriter, st Stats) {
	gauge := func(name string, help string, v any) {
		fmt.Fprintf(w, "# HELP rcm_service_%s %s\n# TYPE rcm_service_%s gauge\n", name, help, name)
		fmt.Fprintf(w, "rcm_service_%s %v\n", name, v)
	}
	counter := func(name string, help string, v uint64) {
		fmt.Fprintf(w, "# HELP rcm_service_%s %s\n# TYPE rcm_service_%s counter\n", name, help, name)
		fmt.Fprintf(w, "rcm_service_%s %d\n", name, v)
	}
	counter("cache_hits_total", "requests served from the result cache", st.Hits)
	counter("cache_misses_total", "requests that queued a computation", st.Misses)
	counter("singleflight_dedups_total", "requests coalesced onto an in-flight computation", st.Dedups)
	counter("cache_evictions_total", "cache entries evicted by the byte budget", st.Evictions)
	counter("jobs_total", "orderings executed by the worker pool", st.Jobs)
	gauge("inflight", "distinct keys currently computing (orderings and components)", st.Inflight)
	gauge("queue_depth", "orderings waiting for a worker slot", st.QueueDepth)
	gauge("cache_entries", "resident cache entries", st.Entries)
	gauge("cache_bytes", "resident cache bytes", st.Bytes)
	gauge("cache_capacity_bytes", "cache byte budget", st.CapacityBytes)
	gauge("workers", "worker pool size", st.Workers)

	if len(st.Orderings) > 0 {
		fmt.Fprintf(w, "# HELP rcm_service_orderings_total orderings executed per family\n")
		fmt.Fprintf(w, "# TYPE rcm_service_orderings_total counter\n")
		for _, o := range detmap.Keys(st.Orderings) {
			fmt.Fprintf(w, "rcm_service_orderings_total{ordering=%q} %d\n", o, st.Orderings[o])
		}
	}
	if len(st.Latency) > 0 {
		fmt.Fprintf(w, "# HELP rcm_service_latency_seconds wall-clock ordering latency per backend\n")
		fmt.Fprintf(w, "# TYPE rcm_service_latency_seconds histogram\n")
		for _, b := range detmap.Keys(st.Latency) {
			h := st.Latency[b]
			for _, bk := range h.Buckets {
				fmt.Fprintf(w, "rcm_service_latency_seconds_bucket{backend=%q,le=%q} %d\n", b, trimFloat(bk.LeSeconds), bk.Count)
			}
			fmt.Fprintf(w, "rcm_service_latency_seconds_bucket{backend=%q,le=\"+Inf\"} %d\n", b, h.Count)
			fmt.Fprintf(w, "rcm_service_latency_seconds_sum{backend=%q} %g\n", b, h.TotalSeconds)
			fmt.Fprintf(w, "rcm_service_latency_seconds_count{backend=%q} %d\n", b, h.Count)
		}
	}
	if len(st.Modeled) > 0 {
		fmt.Fprintf(w, "# HELP rcm_service_modeled_seconds_total cumulative modelled BSP time of distributed jobs\n")
		fmt.Fprintf(w, "# TYPE rcm_service_modeled_seconds_total counter\n")
		for _, p := range st.Modeled {
			fmt.Fprintf(w, "rcm_service_modeled_seconds_total{phase=%q,kind=\"comp\"} %g\n", p.Phase, p.CompSeconds)
			fmt.Fprintf(w, "rcm_service_modeled_seconds_total{phase=%q,kind=\"comm\"} %g\n", p.Phase, p.CommSeconds)
		}
	}
}

func trimFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
