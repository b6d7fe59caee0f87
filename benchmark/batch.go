package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/mmio"
	"repro/internal/spmat"
	"repro/internal/tally"
	"repro/rcm"
)

// batchWorkload is a closed loop with one client goroutine that orders a
// fixed matrix set round-robin.
type batchWorkload struct {
	name     string
	matrices []string
	// dist selects rcm.Order on the Distributed backend over the simulated
	// 2×2 grid; otherwise the op is RCMB decode plus the default
	// Sequential OrderMatrix.
	dist bool
}

var (
	batchMeshSeq     = &batchWorkload{"mesh-seq", []string{"ldoor", "Flan_1565", "nlpkkt240"}, false}
	batchDistMesh    = &batchWorkload{"dist-mesh", []string{"ldoor", "Flan_1565"}, true}
	batchDistLowDiam = &batchWorkload{"dist-lowdiam", []string{"Nm7", "Li7Nmax6"}, true}
)

// batchInput is one generated matrix with its oracle.
type batchInput struct {
	name string
	img  []byte      // RCMB image: mesh-seq decodes it inside every op
	m    *rcm.Matrix // what the dist ops order
	csr  *spmat.CSR  // the same matrix for the traced replay
	nnz  int
	ref  uint64 // hash of the setup-time core.SequentialOpt permutation
}

// setup generates the inputs, computes the oracle, and warms every op path
// twice, checking the warm-up ops like measured ones.
func (b *batchWorkload) setup(cfg runConfig) ([]*batchInput, string, error) {
	scale := cfg.scale(benchScale)
	var dig inputDigest
	ins := make([]*batchInput, 0, len(b.matrices))
	for _, name := range b.matrices {
		m, err := suiteMatrix(name, scale, cfg.seed)
		if err != nil {
			return nil, "", err
		}
		img, err := rcmbImage(m)
		if err != nil {
			return nil, "", err
		}
		csr, err := mmio.ReadBinaryBytes(img, 1)
		if err != nil {
			return nil, "", fmt.Errorf("%s: decoding the generated image: %w", name, err)
		}
		ref := hashPerm(core.SequentialOpt(csr, core.DefaultOptions()).Perm)
		if err := checkPinned(cfg.seed, fmt.Sprintf("%s@%d", name, scale), ref); err != nil {
			return nil, "", err
		}
		dig.add([]byte(name), img)
		ins = append(ins, &batchInput{name: name, img: img, m: m, csr: csr, nnz: m.NNZ(), ref: ref})
	}
	for r := 0; r < 2; r++ {
		for _, in := range ins {
			res, err := b.op(in)
			if err == nil {
				err = in.check(res)
			}
			if err != nil {
				return nil, "", fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return ins, dig.String(), nil
}

// op is the measured operation.
func (b *batchWorkload) op(in *batchInput) (*rcm.Result, error) {
	if b.dist {
		return rcm.Order(in.m, rcm.WithBackend(rcm.Distributed), rcm.WithProcs(distProcs))
	}
	m, err := rcm.ReadBinaryBytes(in.img, batchThreads)
	if err != nil {
		return nil, err
	}
	p, res, err := rcm.OrderMatrix(m, rcm.WithThreads(batchThreads))
	if err != nil {
		return nil, err
	}
	if p.NNZ() != in.nnz {
		return nil, fmt.Errorf("%s: permuted matrix has %d nonzeros, want %d", in.name, p.NNZ(), in.nnz)
	}
	return res, nil
}

// check is the per-op oracle: a valid permutation whose hash equals the
// setup-time sequential reference, which every RCM backend must reproduce.
func (in *batchInput) check(res *rcm.Result) error {
	if !rcm.IsPermutation(res.Perm) || len(res.Perm) != in.csr.N {
		return fmt.Errorf("%s: result is not a permutation of 0..%d", in.name, in.csr.N-1)
	}
	if h := hashPerm(res.Perm); h != in.ref {
		return fmt.Errorf("%s: permutation hash %#x, reference %#x", in.name, h, in.ref)
	}
	return nil
}

// loopStats is what one closed-loop window measured.
type loopStats struct {
	lat []time.Duration
	// probes[i] is the memory probe timed right after the i-th completed
	// op.
	probes    []time.Duration
	nnz       int64
	attempted int
	failed    int
	modeled   []*rcm.Breakdown
	errs      []string
}

// loop runs the closed loop for d. after, when set, runs once a checked op
// has been timed (the traced replay); an error from it fails the op.
func (b *batchWorkload) loop(ins []*batchInput, probe *memProbe, d time.Duration, after func(req int, in *batchInput, res *rcm.Result, start time.Time, el time.Duration) error) loopStats {
	var st loopStats
	end := time.Now().Add(d)
	for i := 0; time.Now().Before(end); i++ {
		in := ins[i%len(ins)]
		start := time.Now()
		res, err := b.op(in)
		el := time.Since(start)
		st.attempted++
		if err == nil {
			err = in.check(res)
		}
		if err == nil && after != nil {
			err = after(i+1, in, res, start, el)
		}
		if err != nil {
			st.failed++
			if len(st.errs) < 5 {
				st.errs = append(st.errs, err.Error())
			}
			continue
		}
		st.lat = append(st.lat, el)
		st.probes = append(st.probes, probe.run())
		st.nnz += int64(in.nnz)
		if res.Modeled != nil {
			st.modeled = append(st.modeled, res.Modeled)
		}
	}
	return st
}

func (b *batchWorkload) run(cfg runConfig) (*outcome, error) {
	var ins []*batchInput
	out := &outcome{}
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	for r := 0; r < reps; r++ {
		ins = nil
		runtime.GC()
		start := time.Now()
		var err error
		if ins, out.inputDigest, err = b.setup(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	probe := newMemProbe()
	if cfg.trace {
		return b.traced(cfg, ins, probe, out)
	}
	st := b.loop(ins, probe, cfg.duration(), nil)
	out.attempted, out.failed, out.notes = st.attempted, st.failed, st.errs
	rss := peakRSSMB()
	run := medianDuration(st.probes)
	out.metrics = emit(endToEnd, batchMetrics(correctLocal(st.lat, st.probes), st.nnz, median(setups)*factor(run), rss))
	out.raw = emit(endToEnd, batchMetrics(st.lat, st.nnz, median(setups), rss))
	out.probe = run
	if len(st.lat) < 200 {
		out.notes = append(out.notes, fmt.Sprintf("only %d ops completed; percentiles need at least 200", len(st.lat)))
	}
	out.correct = st.failed == 0
	return out, nil
}

// batchMetrics derives the end-to-end metrics from op latencies: throughput
// is over the time spent in ops, so the harness's own checks between ops do
// not count.
func batchMetrics(lat []time.Duration, nnz int64, setup, rss float64) map[string]float64 {
	busy := sumDurations(lat).Seconds()
	l := ms(lat)
	return map[string]float64{
		"nnz_per_s":      ratio(float64(nnz), busy),
		"latency_p50_ms": quantile(l, 0.50),
		"latency_p95_ms": quantile(l, 0.95),
		"latency_p99_ms": quantile(l, 0.99),
		"capacity_rps":   ratio(float64(len(lat)), busy),
		"setup_s":        setup,
		"peak_rss_mb":    rss,
	}
}

// traced is the per-layer run: half the window untraced (the overhead
// baseline), half with every op followed by a replay of its stages through
// the layers' public functions, then the counts that need one extra run
// per matrix.
func (b *batchWorkload) traced(cfg runConfig, ins []*batchInput, probe *memProbe, out *outcome) (*outcome, error) {
	half := cfg.duration() / 2
	plain := b.loop(ins, probe, half, nil)
	tr := newTracer()
	traced := b.loop(ins, probe, half, func(req int, in *batchInput, res *rcm.Result, start time.Time, el time.Duration) error {
		s := int64(start.Sub(tr.epoch))
		tr.record(span{Req: req, Name: "rcm.op", Start: s, End: s + int64(el), NNZ: int64(in.nnz)})
		return b.replay(tr, req, in, res)
	})
	out.attempted = plain.attempted + traced.attempted
	out.failed = plain.failed + traced.failed
	out.notes = append(plain.errs, traced.errs...)

	spans := tr.snapshot()
	self := selfTimes(spans)
	by := func(name, label string) map[int]time.Duration { return layerTimes(spans, self, name, label) }
	vals := map[string]float64{}

	realOp, kids := by("rcm.op", ""), childTimes(spans, "replay")
	var glue, resid []float64
	for _, req := range sortedKeys(realOp) {
		c, ok := kids[req]
		if !ok {
			continue
		}
		r := realOp[req].Seconds()
		glue = append(glue, (r-c.Seconds())*1e3)
		resid = append(resid, math.Abs(c.Seconds()-r)/r)
	}
	vals["rcm.glue_ms"] = median(glue)
	vals["trace.residual_frac"] = median(resid)
	vals["trace.overhead_frac"] = ratio(median(ms(traced.lat)), median(ms(plain.lat))) - 1

	if !b.dist {
		vals["mmio.decode_ms"] = medianMs(by("mmio.decode", ""))
		vals["mmio.decode_mb_per_s"] = medianMBps(spans, self, "mmio.decode")
	}
	vals["spmat.symcheck_ms"] = medianMs(by("spmat.symcheck", ""))
	vals["spmat.permute_ms"] = medianMs(by("spmat.permute", ""))
	vals["spmat.stats_ms"] = medianMs(by("spmat.stats", ""))
	vals["spmat.digest_ms"] = medianMs(by("spmat.digest", ""))
	seqFull, seqSkip := by("core.engine", ""), by("core.traversal", "")
	vals["core.peripheral_ms"] = medianMs(diff(seqFull, seqSkip))
	vals["core.traversal_ms"] = medianMs(seqSkip)

	vals["host.probe_ms"] = median(ms(append(plain.probes, traced.probes...)))
	all := append(plain.modeled, traced.modeled...)
	if b.dist {
		distFull, distSkip := by("dist.engine", ""), by("dist.ordering", "")
		vals["dist.peripheral_ms"] = medianMs(diff(distFull, distSkip))
		vals["dist.ordering_ms"] = medianMs(distSkip)
		var x []float64
		for _, req := range sortedKeys(distFull) {
			if s, ok := seqFull[req]; ok {
				x = append(x, ratio(distFull[req].Seconds(), s.Seconds()))
			}
		}
		vals["dist.vs_seq_x"] = median(x)
		modeledMeans(all, vals)
		speedup, err := b.modeledSpeedup(ins)
		if err != nil {
			return nil, err
		}
		vals["modeled_speedup_p16"] = speedup
	} else {
		levels, sweeps, err := b.levelCounts(ins)
		if err != nil {
			return nil, err
		}
		vals["core.levels"], vals["core.sweeps"] = levels, sweeps
	}
	out.metrics = emit(perLayer, vals)
	out.spans = spans
	out.correct = out.failed == 0
	return out, nil
}

// replay repeats the facade's stages for one op through the layers' public
// functions, as children of a "replay" span, and requires the real call's
// permutation byte for byte. A "probe" span then times the runs that split
// the engine: the same engine from the found root without the start-vertex
// search, the pattern digest, and on dist-* the sequential baseline.
func (b *batchWorkload) replay(tr *tracer, req int, in *batchInput, res *rcm.Result) error {
	threads := 1
	if !b.dist {
		threads = batchThreads
	}
	rp := tr.begin("replay", "", 0, req)
	csr := in.csr
	var err error
	if !b.dist {
		id := tr.begin("mmio.decode", "", rp, req)
		csr, _, err = mmio.ReadBinaryBytesDigest(in.img, batchThreads)
		tr.end(id)
		tr.annotate(id, func(s *span) { s.Bytes = int64(len(in.img)) })
		if err != nil {
			tr.end(rp)
			return fmt.Errorf("%s: replay decode: %w", in.name, err)
		}
	}
	sym := false
	tr.call("spmat.symcheck", "", rp, req, func() { sym = csr.IsSymmetricPattern() })
	var perm []int
	if b.dist {
		id := tr.begin("dist.engine", "", rp, req)
		d := core.Distributed(csr, distOptions(core.DefaultOptions()))
		tr.end(id)
		perm = d.Perm
		tr.annotate(id, func(s *span) {
			s.Levels = d.Breakdown.TopDownLevels + d.Breakdown.BottomUpLevels
			s.Msgs, s.Words = d.Breakdown.Msgs, d.Breakdown.Words
		})
	} else {
		tr.call("core.engine", "", rp, req, func() { perm = core.SequentialOpt(csr, core.DefaultOptions()).Perm })
	}
	tr.call("spmat.stats", "before", rp, req, func() { stats(csr, threads) })
	var p *spmat.CSR
	tr.call("spmat.permute", "", rp, req, func() {
		if err = spmat.ValidatePerm(perm, csr.N); err == nil {
			p = csr.PermutePar(perm, threads)
		}
	})
	if err == nil {
		tr.call("spmat.stats", "after", rp, req, func() { stats(p, threads) })
	}
	tr.end(rp)
	switch {
	case !sym:
		return fmt.Errorf("%s: replay assumes a symmetric pattern", in.name)
	case err != nil:
		return fmt.Errorf("%s: replay permute: %w", in.name, err)
	case !slices.Equal(perm, res.Perm):
		return fmt.Errorf("%s: replay permutation differs from the real call's", in.name)
	}

	// From the found root, with the search skipped, the engine reproduces
	// the permutation on a connected matrix: the difference of the two
	// runs is the start-vertex search.
	skip := core.Options{Start: perm[len(perm)-1], SkipPeripheral: true}
	pr := tr.begin("probe", "", 0, req)
	var trav, dtrav []int
	tr.call("core.traversal", "", pr, req, func() { trav = core.SequentialOpt(csr, skip).Perm })
	tr.call("spmat.digest", "", pr, req, func() { sink += len(spmat.PatternDigest(csr)) })
	if b.dist {
		tr.call("core.engine", "", pr, req, func() { sink += len(core.SequentialOpt(csr, core.DefaultOptions()).Perm) })
		tr.call("dist.ordering", "", pr, req, func() { dtrav = core.Distributed(csr, distOptions(skip)).Perm })
	}
	tr.end(pr)
	if !slices.Equal(trav, perm) || (b.dist && !slices.Equal(dtrav, perm)) {
		return fmt.Errorf("%s: the engine from the found root without the search gives another permutation", in.name)
	}
	return nil
}

// distOptions is the engine configuration rcm.Order builds for
// WithBackend(Distributed), WithProcs(distProcs) and default options.
func distOptions(opt core.Options) core.DistOptions {
	return core.DistOptions{
		Procs:    distProcs,
		Model:    tally.Edison().WithThreads(1),
		SortMode: core.SortFull,
		Options:  opt,
	}
}

// sink keeps the replay's results observable.
var sink int

// stats computes the Before/After statistics the facade reports.
func stats(a *spmat.CSR, threads int) {
	wf := a.WavefrontPar(threads)
	sink += a.BandwidthPar(threads) + int(a.ProfilePar(threads)+a.FillProxyPar(threads)) + wf.Max
}

// modeledMeans fills the per-op means of the modelled breakdown.
func modeledMeans(all []*rcm.Breakdown, vals map[string]float64) {
	if len(all) == 0 {
		return
	}
	sums := map[string]float64{}
	for _, m := range all {
		sums["modeled_s"] += m.Seconds
		sums["comm.msgs"] += float64(m.Messages)
		sums["comm.words"] += float64(m.Words)
		sums["core.td_levels"] += float64(m.TopDownLevels)
		sums["core.bu_levels"] += float64(m.BottomUpLevels)
		sums["core.levels"] += float64(m.TopDownLevels + m.BottomUpLevels)
		sums["core.sweeps"] += float64(m.PeripheralSweeps)
		for _, p := range m.Phases {
			sums["tally."+p.Name+".comp_s"] += p.CompSeconds
			sums["tally."+p.Name+".comm_s"] += p.CommSeconds
		}
	}
	for _, k := range sortedKeys(sums) {
		vals[k] = sums[k] / float64(len(all))
	}
}

// modeledSpeedup is the paper's strong-scaling figure on host-independent
// counts: the geometric mean over the matrices of modelled p=1 time over
// p=16 time. It runs once, after the timed window.
func (b *batchWorkload) modeledSpeedup(ins []*batchInput) (float64, error) {
	logSum := 0.0
	for _, in := range ins {
		var t [2]float64
		for i, p := range []int{1, 16} {
			res, err := rcm.Order(in.m, rcm.WithBackend(rcm.Distributed), rcm.WithProcs(p))
			if err == nil {
				err = in.check(res)
			}
			if err != nil {
				return 0, fmt.Errorf("modelled scaling at p=%d: %w", p, err)
			}
			t[i] = res.Modeled.Seconds
		}
		logSum += math.Log(t[0] / t[1])
	}
	return math.Exp(logSum / float64(len(ins))), nil
}

// levelCounts gives mesh-seq the BFS level and sweep counts of its
// orderings. The sequential engine does not count them, so a one-process
// Distributed run — the same levels under the deterministic contract —
// supplies them, once per matrix after the timed window.
func (b *batchWorkload) levelCounts(ins []*batchInput) (levels, sweeps float64, err error) {
	for _, in := range ins {
		d := core.Distributed(in.csr, core.DistOptions{Procs: 1, Options: core.DefaultOptions()})
		if hashPerm(d.Perm) != in.ref {
			return 0, 0, fmt.Errorf("%s: one-process distributed run disagrees with the reference", in.name)
		}
		levels += float64(d.Breakdown.TopDownLevels + d.Breakdown.BottomUpLevels)
		sweeps += float64(d.Breakdown.PeripheralSweeps)
	}
	n := float64(len(ins))
	return levels / n, sweeps / n, nil
}
