package rcm

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// The modelled-breakdown golden pins the distributed backend's whole
// reported model, not only its permutation: the total modelled seconds,
// message and word counts, every phase's computation and communication
// split, and the level and sweep counters. The simulator's wall-clock
// machinery (barriers, block extraction, scratch reuse) may change freely;
// any change that moves one of these numbers is a model change and must
// re-pin this table on purpose.

// hashModeled folds the permutation and every field of the breakdown into
// one FNV-1a hash. Floats are hashed by their IEEE-754 bits, so the pin is
// exact.
func hashModeled(perm []int, b *Breakdown) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, v := range perm {
		put(uint64(v))
	}
	put(math.Float64bits(b.Seconds))
	put(uint64(b.Messages))
	put(uint64(b.Words))
	put(uint64(b.TopDownLevels))
	put(uint64(b.BottomUpLevels))
	put(uint64(b.PeripheralSweeps))
	put(uint64(b.CandidateSweeps))
	for _, p := range b.Phases {
		h.Write([]byte(p.Name))
		put(math.Float64bits(p.CompSeconds))
		put(math.Float64bits(p.CommSeconds))
	}
	return h.Sum64()
}

const modeledGoldenScale = 2

// modeledGolden was captured on the pre-change tree (mutex/cond barrier,
// coordinate-list block extraction) and must not move.
var modeledGolden = map[string]uint64{
	"ldoor/p1":      0xd41380d9b8b89f92,
	"ldoor/p4":      0x181ddbcc0925baf,
	"ldoor/p9":      0x34476e7e81877657,
	"ldoor/p16":     0xa5a14edf91b1ad1,
	"Flan_1565/p1":  0x8324e8a09634cc5c,
	"Flan_1565/p4":  0x9ea2a3a53a08131b,
	"Flan_1565/p9":  0xca52e665e5cb2c77,
	"Flan_1565/p16": 0x9892d0cf33bebdf2,
	"Nm7/p1":        0xa24e1c9f674b710a,
	"Nm7/p4":        0x4eae8004de880f99,
	"Nm7/p9":        0xdb50fe7eed4e85bf,
	"Nm7/p16":       0xbe4946f81f7a2123,
	"Li7Nmax6/p1":   0x785a20e709ade72c,
	"Li7Nmax6/p4":   0xf0e6986278d9a6c7,
	"Li7Nmax6/p9":   0x47e2dc788d151d43,
	"Li7Nmax6/p16":  0x89223c87cc5ecbce,
}

func TestGoldenModeledBreakdown(t *testing.T) {
	for _, name := range []string{"ldoor", "Flan_1565", "Nm7", "Li7Nmax6"} {
		entry, err := SuiteByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a := entry.Build(modeledGoldenScale)
		for _, p := range []int{1, 4, 9, 16} {
			key := fmt.Sprintf("%s/p%d", name, p)
			res, err := Order(a, WithBackend(Distributed), WithProcs(p))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if res.Modeled == nil {
				t.Fatalf("%s: no modelled breakdown", key)
			}
			if got := hashModeled(res.Perm, res.Modeled); got != modeledGolden[key] {
				t.Errorf("%s: modelled hash %#x, golden %#x", key, got, modeledGolden[key])
			}
		}
	}
}
