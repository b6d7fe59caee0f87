package core

import (
	"hash/fnv"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/spmat"
)

// The golden suite pins the permutations of the generator-suite analogs to
// FNV-1a hashes captured before the typed-substrate/keyed-sort refactor.
// All three engines, the distributed one at p = 1 and p = 4, must produce
// the byte-identical permutation (the deterministic contract), and that
// permutation — plus the SortLocal and SortNone ablation orderings of the
// Distributed backend — must never drift: substrate and sort rewrites are
// wall-clock changes, not output changes.
//
// Direction optimization rides the same oracle: the default runs now take
// the DirAuto hybrid, and TestGoldenPermutationsDirections additionally
// forces every level bottom-up (the harshest exercise of the new kernels)
// across backends, process counts, block storages and sort modes — all
// pinned to the same pre-refactor hashes. A forced-BottomUp run that
// matches a hash captured before the bottom-up kernels existed is the
// byte-identical guarantee of the (select2nd, min) fold, end to end.

const goldenScale = 8
const goldenProcs = 4

func hashPerm(p []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range p {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

var goldenSuite = []struct {
	name                  string
	n                     int
	full, local, nonesort uint64
}{
	{"nd24k", 12, 0x1bcbda3af0e6f7a5, 0x1bcbda3af0e6f7a5, 0x1bcbda3af0e6f7a5},
	{"ldoor", 308, 0xd859d4f72c311949, 0x3729d2a24ebd5a99, 0x6a5d5b8069509089},
	{"Serena", 140, 0x801ebcca727970e5, 0x8c4274b81da9d585, 0x19963ff159b8ce45},
	{"audikw_1", 120, 0xff5e3c828c5f68a5, 0xb6a8f8aa7402cba5, 0xad8580dacc385e45},
	{"dielFilterV3real", 120, 0xea0717b5f3f6125, 0xbf1e3b7737a52cc5, 0x231482954cffc385},
	{"Flan_1565", 100, 0x14d989002c5cae65, 0x4de0f35d15d984e5, 0x508fc56957fbe4e5},
	{"Li7Nmax6", 625, 0xc4353619622e615f, 0x4ccc766f95a631bb, 0x82fb63c955fefe3},
	{"Nm7", 937, 0xbfdeb8d884ca37ac, 0xfe10b0ffb8b5054c, 0x349178ac75fab834},
	{"nlpkkt240", 160, 0x3c428f15a1cef725, 0x610cc2181c13abc5, 0xd91d728176ba4f05},
}

func TestGoldenPermutationsAllBackends(t *testing.T) {
	withThreads(t, 4)
	for _, g := range goldenSuite {
		g := g
		t.Run(g.name, func(t *testing.T) {
			entry := graphgen.SuiteByName(g.name)
			if entry == nil {
				t.Fatalf("unknown suite matrix %q", g.name)
			}
			a := entry.Build(goldenScale)
			if a.N != g.n {
				t.Fatalf("suite matrix changed: n=%d, golden %d", a.N, g.n)
			}
			results := map[string]uint64{
				"sequential":     hashPerm(Sequential(a).Perm),
				"shared":         hashPerm(Shared(a, 4).Perm),
				"distributed":    hashPerm(Distributed(a, DistOptions{Procs: goldenProcs}).Perm),
				"distributed/p1": hashPerm(Distributed(a, DistOptions{Procs: 1}).Perm),
			}
			for backend, h := range results {
				if h != g.full {
					t.Errorf("%s: permutation hash %#x, golden %#x", backend, h, g.full)
				}
			}
			if h := hashPerm(Distributed(a, DistOptions{Procs: goldenProcs, SortMode: SortLocal}).Perm); h != g.local {
				t.Errorf("distributed/SortLocal: hash %#x, golden %#x", h, g.local)
			}
			if h := hashPerm(Distributed(a, DistOptions{Procs: goldenProcs, SortMode: SortNone}).Perm); h != g.nonesort {
				t.Errorf("distributed/SortNone: hash %#x, golden %#x", h, g.nonesort)
			}
		})
	}
}

// goldenBiCriteria pins the BiCriteria start-heuristic permutations,
// captured when the start-policy subsystem landed. The suite exercises all
// three engines (which must agree with each other, level by level, under
// the K-way candidate shortlist and AllReduced widths), the 1/4/9 process
// grids, DCSC block storage, and the SortLocal/SortNone ablations.
var goldenBiCriteria = []struct {
	name                  string
	full, local, nonesort uint64
}{
	{"nd24k", 0x1bcbda3af0e6f7a5, 0x1bcbda3af0e6f7a5, 0x1bcbda3af0e6f7a5},
	{"ldoor", 0x7dda0966b0fd7971, 0xc919706d2af8c701, 0x7843021101ddd67d},
	{"Serena", 0x7fe162afbff27da5, 0x4712a98b49842ae5, 0x74d4f5af7aae6ac5},
	{"audikw_1", 0xff5e3c828c5f68a5, 0xb6a8f8aa7402cba5, 0xad8580dacc385e45},
	{"dielFilterV3real", 0xea0717b5f3f6125, 0xbf1e3b7737a52cc5, 0x231482954cffc385},
	{"Flan_1565", 0x2ec1ea629669f225, 0x8182b85c690f7045, 0x8182b85c690f7045},
	{"Li7Nmax6", 0xa62ea3d1d56f65cb, 0x42e943e061849127, 0xa312ae042e57933},
	{"Nm7", 0xc392e1a32cccc5b4, 0x3c8bc2eff6eb2e2c, 0x1d65e3bb87d271ec},
	{"nlpkkt240", 0x3af025d52ab20e5, 0xe380aa65cdfb0325, 0xde05f494d27aedc5},
}

func TestGoldenPermutationsBiCriteria(t *testing.T) {
	withThreads(t, 4)
	bc := Options{Start: -1, Policy: BiCriteriaPolicy{}}
	for _, g := range goldenBiCriteria {
		g := g
		t.Run(g.name, func(t *testing.T) {
			entry := graphgen.SuiteByName(g.name)
			if entry == nil {
				t.Fatalf("unknown suite matrix %q", g.name)
			}
			a := entry.Build(goldenScale)
			results := map[string]uint64{
				"sequential":       hashPerm(SequentialOpt(a, bc).Perm),
				"shared":           hashPerm(SharedOpt(a, 4, bc).Perm),
				"distributed":      hashPerm(Distributed(a, DistOptions{Procs: goldenProcs, Options: bc}).Perm),
				"distributed/p1":   hashPerm(Distributed(a, DistOptions{Procs: 1, Options: bc}).Perm),
				"distributed/p9":   hashPerm(Distributed(a, DistOptions{Procs: 9, Options: bc}).Perm),
				"distributed/dcsc": hashPerm(Distributed(a, DistOptions{Procs: goldenProcs, Hypersparse: true, Options: bc}).Perm),
			}
			for variant, h := range results {
				if h != g.full {
					t.Errorf("%s: permutation hash %#x, golden %#x", variant, h, g.full)
				}
			}
			if h := hashPerm(Distributed(a, DistOptions{Procs: goldenProcs, SortMode: SortLocal, Options: bc}).Perm); h != g.local {
				t.Errorf("distributed/SortLocal: hash %#x, golden %#x", h, g.local)
			}
			if h := hashPerm(Distributed(a, DistOptions{Procs: goldenProcs, SortMode: SortNone, Options: bc}).Perm); h != g.nonesort {
				t.Errorf("distributed/SortNone: hash %#x, golden %#x", h, g.nonesort)
			}
		})
	}
}

func TestGoldenPermutationsDirections(t *testing.T) {
	withThreads(t, 4)
	bu := Options{Start: -1, Direction: DirBottomUp}
	// Aggressive Auto thresholds, so the hybrid actually flips to
	// bottom-up mid-BFS on these small analogs instead of staying
	// top-down throughout.
	auto := Options{Start: -1, Direction: DirAuto, DirAlpha: 2, DirBeta: 64}
	for _, g := range goldenSuite {
		g := g
		t.Run(g.name, func(t *testing.T) {
			entry := graphgen.SuiteByName(g.name)
			if entry == nil {
				t.Fatalf("unknown suite matrix %q", g.name)
			}
			a := entry.Build(goldenScale)
			results := map[string]uint64{
				"shared/bottomup":           hashPerm(SharedOpt(a, 4, bu).Perm),
				"shared/auto":               hashPerm(SharedOpt(a, 4, auto).Perm),
				"distributed/bottomup":      hashPerm(Distributed(a, DistOptions{Procs: goldenProcs, Options: bu}).Perm),
				"distributed/bottomup/p1":   hashPerm(Distributed(a, DistOptions{Procs: 1, Options: bu}).Perm),
				"distributed/bottomup/p9":   hashPerm(Distributed(a, DistOptions{Procs: 9, Options: bu}).Perm),
				"distributed/bottomup/dcsc": hashPerm(Distributed(a, DistOptions{Procs: goldenProcs, Hypersparse: true, Options: bu}).Perm),
				"distributed/auto":          hashPerm(Distributed(a, DistOptions{Procs: goldenProcs, Options: auto}).Perm),
				"distributed/auto/p1":       hashPerm(Distributed(a, DistOptions{Procs: 1, Options: auto}).Perm),
				"distributed/auto/dcsc":     hashPerm(Distributed(a, DistOptions{Procs: goldenProcs, Hypersparse: true, Options: auto}).Perm),
			}
			for variant, h := range results {
				if h != g.full {
					t.Errorf("%s: permutation hash %#x, golden %#x", variant, h, g.full)
				}
			}
			if h := hashPerm(Distributed(a, DistOptions{Procs: goldenProcs, SortMode: SortLocal, Options: bu}).Perm); h != g.local {
				t.Errorf("distributed/SortLocal/bottomup: hash %#x, golden %#x", h, g.local)
			}
			if h := hashPerm(Distributed(a, DistOptions{Procs: goldenProcs, SortMode: SortNone, Options: bu}).Perm); h != g.nonesort {
				t.Errorf("distributed/SortNone/bottomup: hash %#x, golden %#x", h, g.nonesort)
			}
		})
	}
}

// goldenSloan pins Sloan's permutations on the suite analogs and on three
// component-heavy or skewed inputs, so refactors of its component loop and
// per-run scratch are held to the bytes it produced before them.
var goldenSloan = map[string]uint64{
	"nd24k":            0xafca6c28dbc379c5,
	"ldoor":            0xd8b34d56d2ef6b7d,
	"Serena":           0x7dd52563435f7785,
	"audikw_1":         0x762ce54c4d465da5,
	"dielFilterV3real": 0x9eb1afaa5fcefa05,
	"Flan_1565":        0xbebd90bd677538e5,
	"Li7Nmax6":         0x85f55b1a510bdcbf,
	"Nm7":              0x41b7313d7fa9f838,
	"nlpkkt240":        0x6ece5b5ea164f905,
	"multi/giant":      0x474e5a2067dd79fc,
	"multi/smalls":     0x74fab002b25579fc,
	"rmat":             0x53d3aeec9114a8b9,
}

func TestGoldenSloan(t *testing.T) {
	inputs := map[string]*spmat.CSR{
		"multi/giant":  graphgen.MultiComponent(20, 200, 9, 5),
		"multi/smalls": graphgen.MultiComponent(0, 500, 64, 11),
		"rmat":         graphgen.RMAT(10, 4, 7),
	}
	for _, g := range goldenSuite {
		inputs[g.name] = graphgen.SuiteByName(g.name).Build(goldenScale)
	}
	for name, want := range goldenSloan {
		if h := hashPerm(Sloan(inputs[name]).Perm); h != want {
			t.Errorf("%s: Sloan permutation hash %#x, golden %#x", name, h, want)
		}
	}
}
