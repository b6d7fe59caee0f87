package lint

import (
	"go/ast"
	"go/types"
)

// hotAllocAnalyzer enforces allocation discipline in the designated hot
// paths (Config.HotPaths): options fingerprinting, cache-key derivation,
// RCMB decode, the permute/stats kernels, and the proxy routing fast path.
// PR 7 measured a fmt.Fprintf-based fingerprint costing ~3/4 of cache-hit
// latency — fmt both allocates and boxes every argument into an interface,
// and reflects over it at run time. Inside a hot function the analyzer
// flags:
//
//   - any call into package fmt, EXCEPT fmt.Errorf directly inside a return
//     statement — the cold error-exit idiom (a decode that is about to fail
//     is off the fast path by definition);
//   - implicit boxing of a concrete value into an interface parameter, and
//     explicit conversions to interface types (each such site allocates
//     and defeats devirtualization).
//
// The sanctioned forms are strconv.Append*, append to a reused []byte, and
// errors.New for fixed messages. A deliberate boxing site is annotated
// //lint:ignore hotalloc <why the allocation is acceptable>.
//
// A HotPaths entry that names no function of its (loaded) package is itself
// a diagnostic, reported at the package clause: it guards nothing, so a
// rename or deletion must update the list rather than silently drop a guard.
var hotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "no fmt calls or interface boxing in designated hot paths",
	Run: func(pass *Pass) {
		hot := pass.Cfg.hotFuncs(pass.Pkg)
		if hot == nil {
			return
		}
		found := make(map[string]bool, len(hot))
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := funcDeclName(pass.Pkg, fd)
				if !hot[name] {
					continue
				}
				found[name] = true
				checkHotFunc(pass, fd, name)
			}
		}
		for _, name := range pass.Cfg.HotPaths[pass.Cfg.relPath(pass.Pkg)] {
			if !found[name] && len(pass.Pkg.Files) > 0 {
				pass.Reportf(pass.Pkg.Files[0].Package, "HotPaths entry %s names no function in package %s: update the list", name, pass.Pkg.Path)
			}
		}
	},
}

// funcDeclName renders a declaration as its HotPaths key: "Func" for
// functions, "Type.Method" for methods (no pointer star).
func funcDeclName(pkg *Package, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl, name string) {
	info := pass.Pkg.Info
	var stack []ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				// Explicit conversion: flag T(x) when T is an interface
				// and x is concrete.
				if types.IsInterface(tv.Type) && !isInterfaceOrNil(info, n.Args[0]) {
					pass.Reportf(n.Pos(), "conversion boxes %s into %s in hot path %s",
						types.ExprString(n.Args[0]), tv.Type, name)
				}
				return true
			}
			obj := callee(pass.Pkg, n)
			if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
				if obj.Name() == "Errorf" && len(stack) >= 2 {
					if _, inReturn := stack[len(stack)-2].(*ast.ReturnStmt); inReturn {
						return true // cold error exit
					}
				}
				pass.Reportf(n.Pos(), "fmt.%s in hot path %s: fmt boxes and reflects over every argument; use strconv.Append* / errors.New", obj.Name(), name)
				return true
			}
			checkCallBoxing(pass, n, name)
		}
		return true
	})
}

// checkCallBoxing flags arguments whose concrete values are implicitly
// boxed into interface-typed parameters.
func checkCallBoxing(pass *Pass, call *ast.CallExpr, name string) {
	info := pass.Pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return // builtins, etc.
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... spread: no per-element boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isTP := pt.(*types.TypeParam); isTP {
			continue // generic param: instantiates at the concrete type
		}
		if !types.IsInterface(pt) {
			continue
		}
		if isInterfaceOrNil(info, arg) {
			continue // interface-to-interface: no new allocation
		}
		pass.Reportf(arg.Pos(), "argument %s boxes a concrete %s into %s in hot path %s",
			types.ExprString(arg), info.Types[arg].Type, pt, name)
	}
}

// isInterfaceOrNil reports whether an expression already has interface type
// (or is untyped nil), meaning passing it to an interface parameter does not
// allocate a new box.
func isInterfaceOrNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return true // be quiet rather than wrong
	}
	if tv.IsNil() {
		return true
	}
	return types.IsInterface(tv.Type)
}
