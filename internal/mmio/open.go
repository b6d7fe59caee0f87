package mmio

import (
	"os"

	"repro/internal/spmat"
)

// OpenBinary decodes the RCMB file at path through the zero-copy bytes
// reader, mmap-backed where the platform supports it (see mapFile). The
// decode copies every index and value out of the image, so the mapping is
// released before the call returns. threads follows ReadBinaryBytes: 1 is
// serial, < 1 selects GOMAXPROCS.
func OpenBinary(path string, threads int) (*spmat.CSR, error) {
	buf, release, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	defer release()
	return ReadBinaryBytes(buf, threads)
}

// readFileFallback is the portable ingest: one read of the whole file.
func readFileFallback(path string) ([]byte, func(), error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return b, func() {}, nil
}
