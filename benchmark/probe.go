package main

import (
	"math/rand/v2"
	"sort"
	"time"
)

// The benchmark runs on shared hosts whose other tenants load the memory
// system. On the two-core VM it was tuned on (Intel Xeon, 2 MiB L2 per
// core, 105 MiB shared L3), one sparse op ran 30–50% slower for tens of
// seconds at a time, and a raw 20-second median varied by 10–25% from run
// to run. Every workload is memory-bound, and what slows it is the share of
// its data the neighbours evicted from the shared cache. A small sparse
// kernel of the benchmark's own, run cold, measures just that: over 20 s
// windows of one process its time divided into the op's time varied by
// about 1.5% where the raw op time varied by 6%.
//
// The end-to-end timings are therefore reported in probe-corrected time:
// a duration is scaled by probeNominal over the probe's time measured next
// to it — what it would have been on a host where the probe takes
// probeNominal. The probe is the benchmark's code, identical for every
// commit it compares, and the raw values are reported beside the corrected
// ones.
const probeNominal = time.Millisecond

// probeInterval spaces the samples taken while serve-hot's load runs.
const probeInterval = 100 * time.Millisecond

// memProbe is the probe kernel: the column-relabeling pass of a symmetric
// permutation over a fixed scrambled 27-point grid of 10,000 vertices and
// about 250,000 entries — the access pattern of the workloads' permute and
// traversal kernels, on data of the same size.
type memProbe struct {
	rowptr, col, order, inv, out []int
}

func newMemProbe() *memProbe {
	const nx, ny, nz = 100, 10, 10
	n := nx * ny * nz
	rng := rand.New(rand.NewPCG(0x5eed, 0x9e3779b9))
	label := rng.Perm(n) // old vertex -> new id
	p := &memProbe{rowptr: make([]int, n+1), order: rng.Perm(n), inv: rng.Perm(n)}
	rows := make([][]int, n)
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for z := 0; z < nz; z++ {
				v := label[(x*ny+y)*nz+z]
				for dx := -1; dx <= 1; dx++ {
					for dy := -1; dy <= 1; dy++ {
						for dz := -1; dz <= 1; dz++ {
							a, b, c := x+dx, y+dy, z+dz
							if a >= 0 && a < nx && b >= 0 && b < ny && c >= 0 && c < nz {
								rows[v] = append(rows[v], label[(a*ny+b)*nz+c])
							}
						}
					}
				}
			}
		}
	}
	for v, r := range rows {
		sort.Ints(r)
		p.col = append(p.col, r...)
		p.rowptr[v+1] = len(p.col)
	}
	p.out = make([]int, len(p.col))
	return p
}

// run times one pass. It is meant to run cold — right after a workload op,
// or between samples — because the part of its data that other tenants
// evicted since its previous pass is what it measures. On the same host a
// pass right after an op and a pass after an idle pause of the op's length
// read alike, so the op's own footprint barely moves the probe.
func (p *memProbe) run() time.Duration {
	start := time.Now()
	k := 0
	for _, r := range p.order {
		for _, c := range p.col[p.rowptr[r]:p.rowptr[r+1]] {
			p.out[k] = p.inv[c]
			k++
		}
	}
	el := time.Since(start)
	sink += p.out[k/2] & 1
	return el
}

// factor is the correction for durations measured next to a probe time.
func factor(probe time.Duration) float64 {
	return ratio(float64(probeNominal), float64(probe))
}

// correctLocal scales each op's duration by the median of the probes taken
// after the ops within five places of it, so a burst of interference inside
// a run is corrected where it happened while one noisy probe is outvoted.
func correctLocal(lat, probes []time.Duration) []time.Duration {
	out := make([]time.Duration, len(lat))
	for i := range lat {
		lo, hi := max(0, i-5), min(len(probes), i+6)
		out[i] = time.Duration(float64(lat[i]) * factor(medianDuration(probes[lo:hi])))
	}
	return out
}

// probeSample is one probe time and when it was taken.
type probeSample struct {
	at time.Time
	d  time.Duration
}

// sampler runs the probe every probeInterval from its own goroutine while
// serve-hot's load runs.
type sampler struct {
	samples []probeSample // written by the goroutine, read after close
	stop    chan struct{}
	done    chan struct{}
}

func startSampler(p *memProbe) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(probeInterval)
		defer t.Stop()
		for {
			d := p.run()
			s.samples = append(s.samples, probeSample{time.Now(), d})
			select {
			case <-t.C:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// close stops the sampling goroutine and waits for it; around and between
// may be called only afterwards.
func (s *sampler) close() {
	close(s.stop)
	<-s.done
}

// around returns the median probe time of the samples within a second of
// t, or of all samples when none is that close.
func (s *sampler) around(t time.Time) time.Duration {
	var near []time.Duration
	for _, x := range s.samples {
		if d := x.at.Sub(t); d > -time.Second && d < time.Second {
			near = append(near, x.d)
		}
	}
	if len(near) == 0 {
		return s.median()
	}
	return medianDuration(near)
}

// median returns the median of all samples.
func (s *sampler) median() time.Duration {
	all := make([]time.Duration, len(s.samples))
	for i, x := range s.samples {
		all[i] = x.d
	}
	return medianDuration(all)
}
