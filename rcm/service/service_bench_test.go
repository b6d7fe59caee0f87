package service_test

import (
	"context"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/rcm"
	"repro/rcm/service"
)

// BenchmarkService measures the serving layer's per-request overhead on
// the two extreme request mixes: every request distinct (the cold path —
// digest + queue + a full rcm.Order) and every request identical (the hot
// path — digest + cache lookup). Both report qps; together with
// BenchmarkOrder they are the machine-readable perf trajectory CI uploads
// (BENCH_order.json). The suite matrices match BenchmarkOrder's scale-6
// low-diameter set so the cold numbers are comparable.
func BenchmarkService(b *testing.B) {
	entry, err := rcm.SuiteByName("ldoor")
	if err != nil {
		b.Fatal(err)
	}
	a := entry.Build(6)
	spec := service.Spec{Backend: "distributed", Procs: 4, Threads: 2}

	b.Run("miss", func(b *testing.B) {
		svc := service.New(service.Config{Workers: 4})
		defer svc.Close()
		b.ReportAllocs()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			sp := spec
			v := i % a.N() // a fresh fingerprint every iteration: all misses
			sp.Start = &v
			if _, err := svc.Order(context.Background(), a, sp); err != nil {
				b.Fatal(err)
			}
		}
		reportServiceMetrics(b, svc, start)
	})
	b.Run("hit", func(b *testing.B) {
		svc := service.New(service.Config{Workers: 4})
		defer svc.Close()
		if _, err := svc.Order(context.Background(), a, spec); err != nil {
			b.Fatal(err) // warm the single entry
		}
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			resp, err := svc.Order(context.Background(), a, spec)
			if err != nil {
				b.Fatal(err)
			}
			if !resp.Cached {
				b.Fatal("hit benchmark missed the cache")
			}
		}
		reportServiceMetrics(b, svc, start)
	})
}

func reportServiceMetrics(b *testing.B, svc *service.Service, start time.Time) {
	if sec := time.Since(start).Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "qps")
	}
	st := svc.Stats()
	if total := st.Hits + st.Misses + st.Dedups; total > 0 {
		b.ReportMetric(float64(st.Hits+st.Dedups)/float64(total), "hit-ratio")
	}
}

// BenchmarkServiceParallel drives the hot path from parallel clients — the
// contention profile of the steady serving state (mutex + digest memo, no
// ordering work).
func BenchmarkServiceParallel(b *testing.B) {
	a, _ := rcm.Scramble(rcm.Grid3D(20, 12, 4, 1, false), 7)
	svc := service.New(service.Config{Workers: 4})
	defer svc.Close()
	if _, err := svc.Order(context.Background(), a, service.Spec{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := svc.Order(context.Background(), a, service.Spec{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if st := svc.Stats(); st.Jobs != 1 {
		b.Fatalf("parallel hit benchmark ran %d jobs", st.Jobs)
	}
}

// BenchmarkServiceHTTP measures one upload through the handler on a
// recorder, request bytes to JSON response, in the three ways an upload
// meets the body index: a known body whose ordering is cached (one SHA-256
// pass and two map lookups), a known body whose ordering is not (the fill
// decodes the body, then orders it) and a first-seen body (hash, decode
// and digest, then the cached ordering). A first-seen body is the same
// bytes under a Content-Type parameter the index has not seen, which
// changes its key but not its decode. The matrix is serve-hot's ldoor
// analog, in both upload formats.
func BenchmarkServiceHTTP(b *testing.B) {
	entry, err := rcm.SuiteByName("ldoor")
	if err != nil {
		b.Fatal(err)
	}
	a, _ := rcm.Scramble(entry.Build(4), 1)
	for _, format := range []struct{ name, contentType string }{
		{"rcmb", service.ContentTypeBinary},
		{"mm", service.ContentTypeMatrixMarket},
	} {
		body := encodings(b, a)[format.contentType]
		for _, c := range []struct {
			name   string
			xcache string
			// request returns iteration i's query and Content-Type.
			request func(i int) (string, string)
		}{
			{"known-cached", "hit", func(int) (string, string) { return "", format.contentType }},
			{"known-uncached", "miss", func(i int) (string, string) {
				return "?start=" + strconv.Itoa(i%a.N()), format.contentType
			}},
			{"first-seen", "hit", func(i int) (string, string) {
				return "", format.contentType + "; n=" + strconv.Itoa(i)
			}},
		} {
			b.Run(format.name+"/"+c.name, func(b *testing.B) {
				svc := service.New(service.Config{Workers: 1})
				defer svc.Close()
				h := service.NewHandler(svc)
				if got := upload(h, "/v1/order", format.contentType, body); got.status != http.StatusOK {
					b.Fatalf("warm-up: %+v", got)
				}
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					query, ct := c.request(i + 1)
					if got := upload(h, "/v1/order"+query, ct, body); got.status != http.StatusOK || got.xcache != c.xcache {
						b.Fatalf("iteration %d: HTTP %d, X-Cache %q, want %q", i, got.status, got.xcache, c.xcache)
					}
				}
			})
		}
	}
}
