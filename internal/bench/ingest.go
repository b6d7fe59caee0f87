package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/rcm"
)

// IngestRow is one point of the ingest experiment: one ingest strategy
// with its thread count, wall-clock time and effective throughput over the
// encoded image.
type IngestRow struct {
	// Stage names the ingest strategy: read-stream (bufio reader with the
	// fused digest), mmap-serial / mmap-parallel (the zero-copy bytes
	// decoder over a mapped file).
	Stage string
	// Threads is the decode worker count (1 = serial).
	Threads int
	// Millis is the wall-clock decode time.
	Millis float64
	// MBps is the encoded image size divided by the decode time.
	MBps float64
	// DigestOK reports that the strategy reproduced the canonical pattern
	// digest.
	DigestOK bool
}

// RunIngest measures the raw-speed ingest path end to end on an encoded
// RCMB file: the streaming reader and the mmap-backed zero-copy decoder
// (serial and parallel). Every strategy must reproduce the same content
// digest.
func RunIngest(cfg Config) []IngestRow {
	out := cfg.out()
	entry, err := rcm.SuiteByName("ldoor")
	if err != nil {
		panic(err) // the suite always has ldoor
	}
	a := entry.Build(cfg.scale())

	dir, err := os.MkdirTemp("", "rcm-ingest")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "ldoor.rcmb")
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	if err := rcm.WriteBinary(f, a); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		panic(err)
	}
	size := st.Size()
	want := a.Digest()

	fmt.Fprintf(out, "Ingest throughput: RCMB decode strategies (%s analog n=%d nnz=%d, image %d KiB)\n",
		entry.Name, a.N(), a.NNZ(), size/1024)
	fmt.Fprintf(out, "%-14s %8s %10s %10s %7s\n", "stage", "threads", "ms", "MB/s", "digest")

	var rows []IngestRow
	add := func(stage string, threads int, elapsed time.Duration, digest string) {
		row := IngestRow{
			Stage:    stage,
			Threads:  threads,
			Millis:   float64(elapsed.Microseconds()) / 1000,
			MBps:     float64(size) / 1e6 / elapsed.Seconds(),
			DigestOK: digest == want,
		}
		rows = append(rows, row)
		ok := "match"
		if !row.DigestOK {
			ok = "MISMATCH"
		}
		fmt.Fprintf(out, "%-14s %8d %10.2f %10.1f %7s\n", row.Stage, row.Threads, row.Millis, row.MBps, ok)
	}

	// Streaming reader with the fused digest.
	rf, err := os.Open(path)
	if err != nil {
		panic(err)
	}
	start := time.Now()
	m, err := rcm.ReadBinary(rf)
	if err != nil {
		panic(err)
	}
	add("read-stream", 1, time.Since(start), m.Digest())
	rf.Close()

	// Zero-copy mmap decode, serial then parallel.
	for _, threads := range []int{1, 0} {
		stage := "mmap-serial"
		eff := 1
		if threads != 1 {
			stage = "mmap-parallel"
			eff = runtime.GOMAXPROCS(0)
		}
		start = time.Now()
		m, err := rcm.OpenBinary(path, threads)
		if err != nil {
			panic(err)
		}
		// Timed with the digest, which OpenBinary leaves to first use, so
		// the row stays comparable with read-stream's fused one.
		digest := m.Digest()
		add(stage, eff, time.Since(start), digest)
	}
	return rows
}

// WriteIngestCSV writes the ingest rows in machine-readable form.
func WriteIngestCSV(w io.Writer, rows []IngestRow) error {
	if _, err := fmt.Fprintln(w, "stage,threads,ms,mbps,digest_ok"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%d,%.2f,%.1f,%t\n", r.Stage, r.Threads, r.Millis, r.MBps, r.DigestOK); err != nil {
			return err
		}
	}
	return nil
}
