package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"

	"repro/rcm"
)

// hashPerm is the oracle's fingerprint of a permutation: FNV-64a over its
// entries as little-endian 64-bit words, the encoding the repository's
// golden tests use.
func hashPerm(p []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// matrixSeed derives the scramble seed of one matrix from the run seed, so
// a different run seed renumbers every matrix differently.
func matrixSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(name))
	return int64(h.Sum64() >> 1)
}

// suiteMatrix builds the named analog of the paper's suite at the given
// scale and re-scrambles it with a seed derived from the run seed.
func suiteMatrix(name string, scale int, seed int64) (*rcm.Matrix, error) {
	e, err := rcm.SuiteByName(name)
	if err != nil {
		return nil, err
	}
	m, _ := rcm.Scramble(e.Build(scale), matrixSeed(seed, name))
	return m, nil
}

// rcmbImage encodes a matrix as the RCMB binary upload format.
func rcmbImage(m *rcm.Matrix) ([]byte, error) {
	var buf bytes.Buffer
	if err := rcm.WriteBinary(&buf, m); err != nil {
		return nil, fmt.Errorf("encoding RCMB: %w", err)
	}
	return buf.Bytes(), nil
}

// inputDigest identifies a workload's generated inputs: the same seed must
// give the same digest, and another seed another one.
type inputDigest struct{ h []byte }

func (d *inputDigest) add(parts ...[]byte) {
	h := sha256.New()
	h.Write(d.h)
	for _, p := range parts {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	d.h = h.Sum(nil)
}

func (d *inputDigest) String() string { return hex.EncodeToString(d.h) }

// pinnedSeed1 holds the oracle's reference hashes for seed 1, at the
// benchmark's scales and at the small scale the tests use: for the batch
// workloads the hash of each matrix's sequential RCM permutation, and for
// serve-hot one hash over the (matrix, start, permutation hash) triples of
// the prewarmed keys. A setup whose seed-1 reference disagrees fails, so
// drift in the oracle itself cannot pass unnoticed.
var pinnedSeed1 = map[string]uint64{
	"ldoor@2":     0xfdc3818e3ae4349,
	"Flan_1565@2": 0x37c230f85f660bf1,
	"nlpkkt240@2": 0xbc27bd53e0b9757d,
	"Nm7@2":       0x286bcd572ca681a5,
	"Li7Nmax6@2":  0xcc14c4c295e7fa79,
	"serve-hot@4": 0x24572b77c7829248,
	"ldoor@6":     0x6eeef7df24943659,
	"Flan_1565@6": 0x82a899e21c96554e,
	"nlpkkt240@6": 0x452e23e2e39201,
	"Nm7@6":       0xfb94458b3236f924,
	"Li7Nmax6@6":  0x69683dadc5d26396,
	"serve-hot@6": 0x4e82cc327275e718,
}

// checkPinned compares a seed-1 reference hash with its pinned value. Keys
// name the matrix (or serve-hot) and the scale: "ldoor@2".
func checkPinned(seed int64, key string, got uint64) error {
	if seed != 1 {
		return nil
	}
	want, ok := pinnedSeed1[key]
	if !ok {
		return fmt.Errorf("no pinned seed-1 reference for %s (got %#x)", key, got)
	}
	if got != want {
		return fmt.Errorf("seed-1 reference for %s is %#x, pinned %#x: the oracle drifted", key, got, want)
	}
	return nil
}
