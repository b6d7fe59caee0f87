package lint

import "strings"

// Config is the per-package configuration of the suite. Package entries are
// module-relative import paths ("internal/core", "rcm/service"); "." means
// the module root package. File entries are module-relative slash paths.
type Config struct {
	// MapIterPkgs lists the packages where the mapiter check applies: the
	// determinism-critical engine packages plus everything that renders
	// stable output (fingerprints, Prometheus text, stats aggregation,
	// benchjson). internal/detmap is deliberately absent — its sorted-key
	// helpers are the sanctioned form this check points to.
	MapIterPkgs []string

	// LockstepPkgs lists the packages where the lockstep check applies:
	// the distributed substrate and the engine driving it.
	LockstepPkgs []string

	// CommPkgs names the BSP collectives packages (module-relative). Every
	// exported function there except the entries in commNonCollective is a
	// collective for the lockstep check.
	CommPkgs []string

	// HotPaths maps a package to the functions the hotalloc check guards,
	// named "Func" for functions and "Type.Method" for methods (pointer
	// receivers spelled without the star).
	HotPaths map[string][]string

	// UnsafeFiles is the allowlist of files permitted to import unsafe.
	UnsafeFiles []string

	// NoPanicPkgs lists the packages whose exported API must not reach a
	// panic.
	NoPanicPkgs []string
}

// DefaultConfig is the repo's enforcement surface. DESIGN.md ("Enforced
// invariants") documents why each entry is on this list; extend it there
// and here together.
func DefaultConfig() *Config {
	return &Config{
		MapIterPkgs: []string{
			"internal/amd",
			"internal/core",
			"internal/distmat",
			"internal/spmat",
			"internal/tally",
			"internal/psort",
			"rcm",
			"rcm/service",
			"rcm/service/cluster",
			"cmd/benchjson",
		},
		LockstepPkgs: []string{
			"internal/distmat",
			"internal/core",
		},
		CommPkgs: []string{"internal/comm"},
		HotPaths: map[string][]string{
			// Options fingerprinting: computed on every service request;
			// the PR 7 fmt.Fprintf fingerprint cost ~3/4 of hit latency.
			"rcm": {"OptionsFingerprint", "Matrix.Digest"},
			// Cache-key derivation: the content-addressed routing key, and
			// the body index's hash-and-resolve that learns its digest.
			"rcm/service": {"OrderKey", "ComponentsKey", "BodyKey", "BodyIndex.resolve", "Service.resolve"},
			// RCMB zero-copy decode (the word-at-a-time extent split and
			// each block's column and value decode) and the Matrix Market
			// reader with its field scanner: the service ingest paths, hit
			// or miss.
			"internal/mmio": {
				"ReadBinaryBytes", "splitVarints", "decodeColBlock", "decodeValBlock", "uvarintAt",
				"Read", "asciiFields",
			},
			// CSR assembly behind every Matrix Market decode; the symmetry
			// check (its row blocks included) and the fused OrderStats
			// pass, paid on every ordering's input check and Before/After;
			// the permute behind every PAPᵀ a caller asks for, with its band
			// pass and its row blocks (OrderMatrix builds PAPᵀ under the
			// host budget, the trace replay through PermutePar); and the
			// parallel statistics kernels the trace replay times.
			"internal/spmat": {
				"FromCoords",
				"CSR.IsSymmetricPattern", "CSR.IsSymmetricPatternPar", "CSR.symmetricRows",
				"CSR.Permute", "CSR.PermuteChecked", "CSR.PermutePar", "CSR.permutedBand", "newPermuter", "permuter.rows",
				"CSR.OrderStats", "CSR.orderStatsRows",
				"CSR.BandwidthPar", "CSR.ProfilePar", "CSR.WavefrontPar",
				"CSR.FillProxy", "CSR.FillProxyPar",
				"PatternDigest",
				// The sparse accumulator every SpMSpV folds into, per
				// edge and per BFS level, and the local kernels of every
				// bottom-up level.
				"SPA.Fold", "SPA.FoldColumn", "SPA.Drain",
				"BottomUpCSC", "BottomUpDCSC",
			},
			// AMD pivot kernels: the per-round parallel phases — every
			// allocation inside them multiplies by pivots × rounds, and fmt
			// boxing would wreck the epoch-scratch design.
			"internal/amd": {
				"solver.selectPivots", "solver.eliminate",
				"solver.mergeVariables", "solver.updateDegrees",
			},
			// The simulator's fixed costs: every collective waits at two
			// barriers (thousands per distributed order on a mesh), and a
			// waiting rank yields to its worker's loop, which resumes the
			// next runnable rank or idles; every rank extracts its block,
			// row view and degrees once per order, and readies the view at
			// its first bottom-up level. SpMSpV — its local CSC/DCSC
			// kernels, their drain, the row routing and the partial merge —
			// or the bottom-up step, and SORTPERM run once per BFS level,
			// and radixPass under every keyed sort of the frontier pipeline.
			"internal/comm": {"barrier.wait", "world.drive", "world.idle", "world.ready"},
			"internal/distmat": {
				"NewMat", "Mat.ensureBottomUp", "DegreeVec", "SpMSpV", "Mat.LocalSpMSpVCSC", "Mat.LocalSpMSpVDCSC", "Mat.spaEmit",
				"BottomUpStep", "routeRowPartials", "foldPartials", "SortPermWS",
			},
			"internal/psort": {"radixPass"},
			// The coalescing cache's lookup: every request at both tiers,
			// hit or miss, passes through it.
			"internal/memo": {"Cache.Get"},
			// Proxy routing fast path: key resolution (through the body
			// index for keyless requests) and ring placement run on every
			// proxied request.
			"rcm/service/cluster": {
				"Proxy.orderKey", "Proxy.componentsKey", "Proxy.digest", "upload.sum", "flightKey",
				"Ring.Pick", "Ring.Successors", "Rendezvous", "hash64", "itoa",
			},
		},
		UnsafeFiles: []string{
			"internal/comm/comm.go", // typed zero-reflection collectives
			"rcm/service/cache.go",  // cache entry byte accounting
		},
		NoPanicPkgs: []string{
			"internal/memo",
			"rcm",
			"rcm/service",
			"rcm/service/cluster",
		},
	}
}

// relPath strips the module prefix from an import path: "repro/rcm" under
// module "repro" becomes "rcm", and the module root package becomes ".".
// Fixture packages loaded without a module prefix pass through unchanged.
func (c *Config) relPath(pkg *Package) string {
	if pkg.Module == "" {
		return pkg.Path
	}
	if pkg.Path == pkg.Module {
		return "."
	}
	return strings.TrimPrefix(pkg.Path, pkg.Module+"/")
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// mapIterEnabled reports whether the mapiter check covers pkg.
func (c *Config) mapIterEnabled(pkg *Package) bool { return contains(c.MapIterPkgs, c.relPath(pkg)) }

// lockstepEnabled reports whether the lockstep check covers pkg.
func (c *Config) lockstepEnabled(pkg *Package) bool { return contains(c.LockstepPkgs, c.relPath(pkg)) }

// noPanicEnabled reports whether the nopanic check covers pkg.
func (c *Config) noPanicEnabled(pkg *Package) bool { return contains(c.NoPanicPkgs, c.relPath(pkg)) }

// isCommPkg reports whether the import path names a collectives package.
func (c *Config) isCommPkg(pkg *Package, importPath string) bool {
	for _, rel := range c.CommPkgs {
		if importPath == rel {
			return true
		}
		if pkg.Module != "" && importPath == pkg.Module+"/"+rel {
			return true
		}
	}
	return false
}

// hotFuncs returns the hotalloc function set for pkg (nil when none).
func (c *Config) hotFuncs(pkg *Package) map[string]bool {
	names := c.HotPaths[c.relPath(pkg)]
	if len(names) == 0 {
		return nil
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

// unsafeAllowed reports whether the module-relative file may import unsafe.
func (c *Config) unsafeAllowed(relFile string) bool { return contains(c.UnsafeFiles, relFile) }
