// Command rcmserve runs the ordering service over HTTP: a fixed number of
// worker slots executing rcm.Order jobs behind a content-addressed result
// cache with single-flight deduplication (package repro/rcm/service).
//
//	rcmserve [-addr :8077] [-workers 4] [-cache-mb 256]
//	         [-backend sequential] [-procs 0] [-threads 0]
//	         [-heuristic pseudo-peripheral] [-direction auto] [-sort full]
//	         [-drain-wait 2s]
//
// On SIGTERM/SIGINT the server drains gracefully: /healthz flips to 503
// "draining" so a routing tier (cmd/rcmproxy) stops sending new work,
// in-flight requests finish, and the final stats snapshot is logged as a
// JSON line.
//
// The -backend/-procs/-threads/-heuristic/-direction/-sort flags are
// server-side defaults; every request may override them with query
// parameters. See OPERATIONS.md for the API reference, curl examples and
// sizing guidance.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/rcm/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8077", "HTTP listen address")
		drainWait = flag.Duration("drain-wait", 2*time.Second, "time to advertise draining on /healthz before closing the listener, so routing tiers stop sending new work")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		cacheMB   = flag.Int64("cache-mb", 256, "result cache byte budget in MiB (negative disables caching)")
		maxUpMB   = flag.Int64("max-upload-mb", 1024, "per-request upload cap in MiB (decoded matrices are ~8-16x larger)")
		ordering  = flag.String("ordering", "", "default ordering family: rcm|amd|sloan")
		backend   = flag.String("backend", "", "default backend: sequential|algebraic|shared|distributed")
		procs     = flag.Int("procs", 0, "default simulated process count for the distributed backend")
		threads   = flag.Int("threads", 0, "default thread count (shared backend / distributed model)")
		heur      = flag.String("heuristic", "", "default starting-vertex heuristic")
		dir       = flag.String("direction", "", "default traversal direction policy")
		sortM     = flag.String("sort", "", "default distributed frontier sort mode")
		compS     = flag.Bool("compsched", false, "enable component scheduling by default (small components ordered concurrently)")
		compT     = flag.Int("compthreshold", 0, "default component-scheduling size threshold (0 = built-in default)")
	)
	flag.Parse()

	cacheBytes := *cacheMB << 20
	if *cacheMB < 0 {
		cacheBytes = -1
	}
	svc := service.New(service.Config{
		Workers:        *workers,
		CacheBytes:     cacheBytes,
		MaxUploadBytes: *maxUpMB << 20,
		DefaultSpec: service.Spec{
			Ordering:      *ordering,
			Backend:       *backend,
			Procs:         *procs,
			Threads:       *threads,
			Heuristic:     *heur,
			Direction:     *dir,
			Sort:          *sortM,
			CompSched:     compSched(*compS),
			CompThreshold: *compT,
		},
	})

	srv := &http.Server{Addr: *addr, Handler: logRequests(service.NewHandler(svc))}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		// Graceful drain: advertise 503 on /healthz first so routing
		// tiers (rcmproxy) take this replica out of rotation, keep
		// serving on open connections for drain-wait, then close the
		// listener and let in-flight requests finish.
		svc.SetDraining(true)
		log.Printf("rcmserve: draining (healthz 503) for %s", *drainWait)
		time.Sleep(*drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("rcmserve: shutdown: %v", err)
		}
		svc.Close()
		if final, err := json.Marshal(svc.Stats()); err == nil {
			log.Printf("rcmserve: final stats %s", final)
		}
	}()

	log.Printf("rcmserve: listening on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "rcmserve: %v\n", err)
		os.Exit(1)
	}
	<-done
}

// logRequests is a one-line access log: method, path, status, cache
// disposition and wall time.
// compSched maps the boolean flag onto the Spec's tri-state field: false
// stays nil so per-request compsched=1 still works without a server default.
func compSched(on bool) *bool {
	if !on {
		return nil
	}
	return service.Bool(true)
}

func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		cache := rec.Header().Get("X-Cache")
		if cache == "" {
			cache = "-"
		}
		log.Printf("%s %s %d cache=%s %.3fs", r.Method, r.URL.Path, rec.status, cache, time.Since(start).Seconds())
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}
