package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/rcm"
	"repro/rcm/service"
)

// ServiceThroughputRow is one point of the serving-layer throughput
// experiment: the request mix's target cache hit ratio against the
// sustained queries per second the Service achieved.
type ServiceThroughputRow struct {
	// TargetHitRatio is the repeated fraction of the request stream
	// (0 = every request distinct, 0.9 = nine in ten repeats).
	TargetHitRatio float64
	// Requests and Clients describe the load: total requests issued by
	// that many concurrent client goroutines.
	Requests, Clients int
	// QPS is requests divided by wall-clock time.
	QPS float64
	// Hits, Dedups and Jobs split how requests were served: cache,
	// coalesced in-flight, or computed by the pool.
	Hits, Dedups, Jobs uint64
	// AchievedHitRatio is (Hits + Dedups) / Requests — what the cache
	// actually absorbed, the number to compare against TargetHitRatio.
	AchievedHitRatio float64
}

// RunServiceThroughput measures the ordering service end to end: a fixed
// pool serving concurrent clients whose request stream repeats keys at a
// controlled rate. The point it makes is the serving-layer analog of the
// paper's "cheap preprocessing" framing — the marginal cost of a repeated
// ordering must be near zero, so QPS should scale roughly like
// 1/(1 − hit ratio) once the distinct working set is resident.
func RunServiceThroughput(cfg Config) []ServiceThroughputRow {
	out := cfg.out()
	entry, err := rcm.SuiteByName("ldoor")
	if err != nil {
		panic(err) // the suite always has ldoor
	}
	// 2× the experiment scale: the service point is cache behaviour, not
	// kernel speed, so a smaller analog keeps the sweep quick. The
	// distributed backend is the interesting tenant — its jobs both cost
	// the most and carry the modelled breakdown through the cache.
	a := entry.Build(2 * cfg.scale())
	spec := service.Spec{Backend: "distributed", Procs: 4, Threads: 2}

	const requests = 96
	clients := runtime.GOMAXPROCS(0)
	if clients > 8 {
		clients = 8
	}
	fmt.Fprintf(out, "Service throughput: QPS vs cache hit ratio (%s analog n=%d nnz=%d, backend=%s, %d clients)\n",
		entry.Name, a.N(), a.NNZ(), spec.Backend, clients)
	fmt.Fprintf(out, "%-10s %9s %9s %7s %7s %6s %9s\n",
		"target", "requests", "qps", "hits", "dedups", "jobs", "achieved")

	rows := make([]ServiceThroughputRow, 0, 3)
	for _, target := range []float64{0, 0.5, 0.9} {
		// A key is a pinned start vertex, so a small analog caps the
		// distinct keys at its dimension.
		distinct := min(requests-int(float64(requests)*target), a.N())
		if distinct < 1 {
			distinct = 1
		}
		svc := service.New(service.Config{Workers: clients})
		var wg sync.WaitGroup
		reqs := make(chan int)
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range reqs {
					// Cycling the pinned start vertex through `distinct`
					// values varies the options fingerprint, so the stream
					// has exactly `distinct` cache keys.
					sp := spec
					v := i % distinct
					sp.Start = &v
					if _, err := svc.Order(context.Background(), a, sp); err != nil {
						panic(err)
					}
				}
			}()
		}
		for i := 0; i < requests; i++ {
			reqs <- i
		}
		close(reqs)
		wg.Wait()
		elapsed := time.Since(start)
		st := svc.Stats()
		svc.Close()

		row := ServiceThroughputRow{
			TargetHitRatio:   target,
			Requests:         requests,
			Clients:          clients,
			QPS:              float64(requests) / elapsed.Seconds(),
			Hits:             st.Hits,
			Dedups:           st.Dedups,
			Jobs:             st.Jobs,
			AchievedHitRatio: float64(st.Hits+st.Dedups) / float64(requests),
		}
		rows = append(rows, row)
		fmt.Fprintf(out, "%-10.2f %9d %9.0f %7d %7d %6d %9.2f\n",
			row.TargetHitRatio, row.Requests, row.QPS, row.Hits, row.Dedups, row.Jobs, row.AchievedHitRatio)
	}
	fmt.Fprintln(out, "QPS should grow toward 1/(1-ratio)× the cold rate as the cache absorbs repeats.")
	return rows
}

// WriteServiceCSV writes the throughput rows in machine-readable form.
func WriteServiceCSV(w io.Writer, rows []ServiceThroughputRow) error {
	if _, err := fmt.Fprintln(w, "target_hit_ratio,requests,clients,qps,hits,dedups,jobs,achieved_hit_ratio"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%.2f,%d,%d,%.1f,%d,%d,%d,%.3f\n",
			r.TargetHitRatio, r.Requests, r.Clients, r.QPS, r.Hits, r.Dedups, r.Jobs, r.AchievedHitRatio); err != nil {
			return err
		}
	}
	return nil
}
