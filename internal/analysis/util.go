package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Unparen strips any enclosing parentheses.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// Callee resolves the static callee of a call, or nil for calls through
// function values, builtins and type conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// MatchPath reports whether an import-path pattern matches a package
// path. Patterns follow the go tool's convention: "..." matches
// everything, a trailing "/..." matches the named package and its
// subtree, anything else matches exactly.
func MatchPath(pattern, path string) bool {
	if pattern == "..." {
		return true
	}
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == prefix || strings.HasPrefix(path, prefix+"/")
	}
	return pattern == path
}

// MatchAnyPath reports whether any pattern matches the path.
func MatchAnyPath(patterns []string, path string) bool {
	for _, p := range patterns {
		if MatchPath(p, path) {
			return true
		}
	}
	return false
}

// FuncKey returns the config-file identifier of a function declaration:
// "Func" for a plain function, "Type.Method" for a method (pointer
// receivers spelled without the star). It is matched against the part of
// a "pkgpath.Func" / "pkgpath.Type.Method" config entry after the
// package path.
func FuncKey(decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return decl.Name.Name
	}
	t := decl.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers (Type[T]) reduce to the base type name.
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + decl.Name.Name
	}
	return decl.Name.Name
}
