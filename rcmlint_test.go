package repro

import (
	"go/types"
	"slices"
	"strings"
	"testing"

	"repro/internal/lint"
)

// loadModule loads and type-checks every package of the module, the
// benchmark module's included, without test files.
func loadModule(t *testing.T) (*lint.Loader, []*lint.Package) {
	t.Helper()
	loader := &lint.Loader{Dir: "."}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	return loader, pkgs
}

// TestRCMLintClean is the self-lint gate: `go test ./...` runs the full
// rcmlint suite over the module and fails on any unsuppressed diagnostic,
// so the determinism/lockstep/hot-path invariants are enforced locally, not
// just by the CI lint job. It is the same analysis `go run ./cmd/rcmlint
// ./...` performs.
func TestRCMLintClean(t *testing.T) {
	loader, pkgs := loadModule(t)
	diags := lint.Run(lint.DefaultConfig(), loader.Dir, pkgs)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Log("fix the site, or suppress with `//lint:ignore <check> <reason>` when the invariant provably holds")
	}
}

// TestInternalExportsHaveCallers keeps test-only code out of production:
// every exported function and method declared under internal/ must be used
// by non-test code of the module, the benchmark module included, unless
// testOnlyExports lists it with the reason it stays. A use is a
// type-checked identifier use or selection, with a generic instance mapped
// to its origin. A method that shares its name with a method of some
// interface (of the loaded packages or their imports, or error's Error) is
// skipped, because a call through that interface reaches it without naming
// it; so this check cannot see a test-only method whose name an interface
// also declares.
func TestInternalExportsHaveCallers(t *testing.T) {
	testOnlyExports := map[string]string{
		"comm.Comm.Barrier": "comm's tests synchronize ranks on it, and it is the one caller of tally.Model.BarrierCost",
		"spmat.CSR.BFS":     "the independent BFS level oracle of the core, graphgen and spmat tests",
	}
	_, pkgs := loadModule(t)
	origin := func(obj types.Object) types.Object {
		if fn, ok := obj.(*types.Func); ok {
			return fn.Origin()
		}
		return obj
	}
	used := map[types.Object]bool{}
	ifaceMethods := map[string]bool{"Error": true}
	seen := map[*types.Package]bool{}
	var collect func(p *types.Package)
	collect = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceMethods[it.Method(i).Name()] = true
				}
			}
		}
		for _, imp := range p.Imports() {
			collect(imp)
		}
	}
	for _, pkg := range pkgs {
		collect(pkg.Types)
		for _, obj := range pkg.Info.Uses {
			used[origin(obj)] = true
		}
		for _, sel := range pkg.Info.Selections {
			used[origin(sel.Obj())] = true
		}
	}
	var unused []string
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, pkg.Module+"/internal/") {
			continue
		}
		for _, obj := range pkg.Info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || !fn.Exported() || used[fn] {
				continue
			}
			name := pkg.Types.Name() + "." + fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if ifaceMethods[fn.Name()] {
					continue
				}
				rt := recv.Type()
				if ptr, ok := rt.(*types.Pointer); ok {
					rt = ptr.Elem()
				}
				name = pkg.Types.Name() + "." + rt.(*types.Named).Obj().Name() + "." + fn.Name()
			}
			unused = append(unused, name)
		}
	}
	slices.Sort(unused)
	for _, name := range unused {
		if _, ok := testOnlyExports[name]; !ok {
			t.Errorf("%s: no non-test code uses it; move it into the tests that call it, or delete it", name)
		}
	}
	for name := range testOnlyExports {
		if !slices.Contains(unused, name) {
			t.Errorf("%s is allowlisted but production code now uses it, or it is gone; drop its entry", name)
		}
	}
}
