// Package hotpath enforces the allocation discipline of DESIGN.md §7:
// the per-record serving paths (address formatting, wire framing,
// metrics observation, span recording, NDJSON line building) stay
// allocation-free, and the per-request handler bodies stay free of
// fmt-family formatting and of reflection-based encoding inside loops.
//
// Two tiers, both declared in docs/eipvet.json:
//
//   - entry_points — the zero-alloc contract. Every function reachable
//     from an entry point through static intra-package calls (including
//     calls made inside closures of those functions) must not call
//     fmt.Sprintf/Errorf/… or encoding/json, must not concatenate
//     strings inside a loop, must not `make` inside a loop, and must not
//     append to a package-level variable.
//     fmt calls whose result feeds directly into panic(...) are exempt:
//     a panicking path is terminal, not steady state.
//
//   - warm_funcs — the per-request tier (HTTP stream handlers). Only the
//     listed function's own body (closures included, callees excluded)
//     is checked, and the rules relax to: no fmt print/format calls
//     anywhere, no encoding/json and no make/concat inside loops. A
//     one-off json.NewDecoder of a request body is per-request, not
//     per-record, and stays legal.
//
// A configured name that matches no function of its package is itself
// reported (at the package clause): a rename must not switch a check
// off silently.
//
// Deliberate allocations are annotated in place with a justification:
//
//	if err := json.Unmarshal(line, &ol); … //eip:alloc-ok JSON-framed lines are the documented slow path
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"entropyip/internal/analysis"
)

// Config declares the checked functions as "pkgpath.Func" or
// "pkgpath.Type.Method" (pointer receivers spelled without the star).
type Config struct {
	EntryPoints []string `json:"entry_points"`
	WarmFuncs   []string `json:"warm_funcs"`
}

// New returns the analyzer for a configuration.
func New(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:        "hotpath",
		Doc:         "forbids allocation-heavy calls in functions reachable from the declared zero-alloc entry points, and fmt/json use in the declared warm handlers",
		SuppressKey: "alloc-ok",
		Run: func(pass *analysis.Pass) error {
			run(pass, cfg)
			return nil
		},
	}
}

// splitEntry splits "pkgpath.Func" / "pkgpath.Type.Method" around the
// package path boundary: the path is everything before the first dot
// that follows the final slash.
func splitEntry(entry string) (pkg, fn string) {
	slash := strings.LastIndex(entry, "/")
	dot := strings.Index(entry[slash+1:], ".")
	if dot < 0 {
		return entry, ""
	}
	dot += slash + 1
	return entry[:dot], entry[dot+1:]
}

func run(pass *analysis.Pass, cfg Config) {
	entries := make(map[string]bool) // FuncKey within this package
	warm := make(map[string]bool)
	for _, e := range cfg.EntryPoints {
		if pkg, fn := splitEntry(e); pkg == pass.Pkg.Path() && fn != "" {
			entries[fn] = true
		}
	}
	for _, e := range cfg.WarmFuncs {
		if pkg, fn := splitEntry(e); pkg == pass.Pkg.Path() && fn != "" {
			warm[fn] = true
		}
	}
	if len(entries) == 0 && len(warm) == 0 {
		return
	}

	// Index this package's function declarations by their defining
	// object, and resolve the configured names.
	decls := make(map[types.Object]*ast.FuncDecl)
	keys := make(map[types.Object]string)
	var entryObjs, warmObjs []types.Object
	var pkgPos token.Pos
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		if !pkgPos.IsValid() {
			pkgPos = f.Package
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			decls[obj] = fd
			key := analysis.FuncKey(fd)
			keys[obj] = key
			if entries[key] {
				entryObjs = append(entryObjs, obj)
			}
			if warm[key] {
				warmObjs = append(warmObjs, obj)
			}
			delete(entries, key)
			delete(warm, key)
		}
	}
	// What is left names nothing: a renamed function or a stale config
	// entry, whose check would otherwise be off without a word.
	reportUnresolved(pass, pkgPos, "entry point", cfg.EntryPoints, entries)
	reportUnresolved(pass, pkgPos, "warm function", cfg.WarmFuncs, warm)

	// BFS over static intra-package calls from the entry points.
	reached := make(map[types.Object]bool)
	queue := append([]types.Object(nil), entryObjs...)
	for _, o := range queue {
		reached[o] = true
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		fd := decls[obj]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pass.Pkg.Path() {
				return true
			}
			callee := types.Object(fn)
			if _, local := decls[callee]; local && !reached[callee] {
				reached[callee] = true
				queue = append(queue, callee)
			}
			return true
		})
	}

	for obj := range reached {
		checkBody(pass, decls[obj], keys[obj], true)
	}
	for _, obj := range warmObjs {
		if !reached[obj] { // strict tier subsumes the warm rules
			checkBody(pass, decls[obj], keys[obj], false)
		}
	}
}

// reportUnresolved reports at pos, in configuration order, each
// configured name of this package that is still in unresolved.
func reportUnresolved(pass *analysis.Pass, pos token.Pos, tier string, configured []string, unresolved map[string]bool) {
	for _, e := range configured {
		if pkg, fn := splitEntry(e); pkg == pass.Pkg.Path() && unresolved[fn] {
			pass.Reportf(pos, "%s %s matches no function declared in %s, so its check is off; fix or remove the entry",
				tier, e, pkg)
		}
	}
}

// fmtAllocFuncs are the fmt package-level functions whose call implies
// formatting machinery and allocation.
var fmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Errorf":  true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Printf": true, "Print": true, "Println": true,
	"Appendf": true, "Append": true, "Appendln": true,
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl, key string, strict bool) {
	tier := "warm handler"
	if strict {
		tier = "zero-alloc path"
	}
	// panicArgs holds fmt calls that are the direct argument of a
	// panic(...): terminal, exempt in both tiers.
	panicArgs := make(map[*ast.CallExpr]bool)
	var loopDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			switch n := n.(type) {
			case *ast.ForStmt:
				if n.Init != nil {
					ast.Inspect(n.Init, walk)
				}
				if n.Cond != nil {
					ast.Inspect(n.Cond, walk)
				}
				if n.Post != nil {
					ast.Inspect(n.Post, walk)
				}
				ast.Inspect(n.Body, walk)
			case *ast.RangeStmt:
				if n.X != nil {
					// The ranged expression is evaluated once, outside
					// the loop.
					loopDepth--
					ast.Inspect(n.X, walk)
					loopDepth++
				}
				ast.Inspect(n.Body, walk)
			}
			loopDepth--
			return false
		case *ast.CallExpr:
			if isBuiltinCall(pass, n, "panic") && len(n.Args) == 1 {
				if inner, ok := analysis.Unparen(n.Args[0]).(*ast.CallExpr); ok {
					panicArgs[inner] = true
				}
			}
			checkCall(pass, n, key, tier, strict, loopDepth, panicArgs)
			if isBuiltinCall(pass, n, "make") && loopDepth > 0 {
				pass.Reportf(n.Pos(),
					"make inside a loop on the %s %s allocates per iteration; hoist it or use a pooled/reused buffer, or annotate //eip:alloc-ok <why>",
					tier, key)
			}
		case *ast.BinaryExpr:
			if loopDepth > 0 && n.Op.String() == "+" && isStringType(pass, n) {
				pass.Reportf(n.Pos(),
					"string concatenation inside a loop on the %s %s; use append on a byte slice or strings.Builder, or annotate //eip:alloc-ok <why>",
					tier, key)
			}
		case *ast.AssignStmt:
			if loopDepth > 0 && n.Tok.String() == "+=" && len(n.Lhs) == 1 && isStringType(pass, n.Lhs[0]) {
				pass.Reportf(n.Pos(),
					"string concatenation inside a loop on the %s %s; use append on a byte slice or strings.Builder, or annotate //eip:alloc-ok <why>",
					tier, key)
			}
			if strict && len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					call, ok := analysis.Unparen(rhs).(*ast.CallExpr)
					if ok && isBuiltinCall(pass, call, "append") && isPackageVar(pass, n.Lhs[i]) {
						pass.Reportf(n.Pos(),
							"append to a package-level variable on the %s %s grows it on every call; keep the buffer in the caller or a reused field, or annotate //eip:alloc-ok <why>",
							tier, key)
					}
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, key, tier string, strict bool, loopDepth int, panicArgs map[*ast.CallExpr]bool) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if panicArgs[call] {
		return
	}
	switch fn.Pkg().Path() {
	case "fmt":
		if fmtAllocFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"fmt.%s on the %s %s allocates and reflects; use strconv/append formatting, or annotate //eip:alloc-ok <why>",
				fn.Name(), tier, key)
		}
	case "encoding/json":
		if strict || loopDepth > 0 {
			where := "on the zero-alloc path"
			if !strict {
				where = "inside a loop on the warm handler"
			}
			pass.Reportf(call.Pos(),
				"encoding/json %s %s runs reflection per record; use the append-style encoders (DESIGN.md §7), or annotate //eip:alloc-ok <why>",
				where, key)
		}
	}
}

func isBuiltinCall(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := analysis.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// isPackageVar reports whether e names a package-level variable, of this
// package or, qualified, of another.
func isPackageVar(pass *analysis.Pass, e ast.Expr) bool {
	var id *ast.Ident
	switch e := analysis.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func isStringType(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}
