// Package analyzers implements dlht's repo-specific static analysis
// passes — the concurrency contracts the paper's design depends on and
// that no general-purpose tool knows about:
//
//   - ackgate:     durable-serving reply writers must gate socket-bound
//     bytes behind a covering sync (the bufio auto-flush
//     hazard re-fixed by hand in PR 6 and PR 8)
//   - pipebarrier: KV reads outside the streaming pipeline must drain
//     it first, or completions reorder across them
//   - sentinelcmp: error sentinels compare with errors.Is, never ==/!=
//   - hotpath:     files annotated //dlht:hotpath may not call
//     time.Now or fmt.*, or allocate via interface conversion
//
// The passes are written against go/ast + go/types only. The toolchain
// image has no module cache and no network, so golang.org/x/tools
// (go/analysis, analysistest, go/packages) is unavailable; this package
// carries a minimal equivalent of the analysis.Pass surface and loads
// real packages offline through `go list -export` plus the stdlib gc
// importer (see load.go). The driver is cmd/dlhtlint.
//
// Suppression: a diagnostic is dropped when the flagged line, or the
// line directly above it, carries a comment containing
// "dlht:ok:<analyzer>" — use it with a justification, like //nolint.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named pass. Run inspects the package behind the
// Pass and reports findings through it.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass hands one type-checked package to an analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns every pass, in the order the driver runs them.
func All() []*Analyzer {
	return []*Analyzer{AckGate, PipeBarrier, SentinelCmp, HotPath}
}

// ByName returns the named pass, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes one analyzer over a loaded package and returns its
// diagnostics with dlht:ok suppressions applied, sorted by position.
func Run(a *Analyzer, pkg *Package) []Diagnostic {
	pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}
	a.Run(pass)
	return suppress(a.Name, pass)
}

// suppress drops diagnostics whose line (or the line above) carries a
// dlht:ok:<name> comment.
func suppress(name string, p *Pass) []Diagnostic {
	marker := "dlht:ok:" + name
	// Lines (per file) on which a suppression applies.
	ok := make(map[string]map[int]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.Contains(c.Text, marker) {
					continue
				}
				// The marker covers its own line through one line past
				// the end of its comment group, so a multi-line
				// justification still reaches the code below it.
				pos := p.Fset.Position(c.Pos())
				end := p.Fset.Position(cg.End())
				m := ok[pos.Filename]
				if m == nil {
					m = make(map[int]bool)
					ok[pos.Filename] = m
				}
				for line := pos.Line; line <= end.Line+1; line++ {
					m[line] = true
				}
			}
		}
	}
	out := p.diags[:0]
	for _, d := range p.diags {
		pos := p.Fset.Position(d.Pos)
		if ok[pos.Filename][pos.Line] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// ---------------------------------------------------------------------------
// Shared AST/type helpers
// ---------------------------------------------------------------------------

// calleeName returns the bare name of a call's function or method —
// "Lock" for mu.Lock() and for a local lock() closure alike.
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// calleePkgPath returns the import path when the call is a selector on
// a package name (fmt.Errorf → "fmt"), else "".
func calleePkgPath(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// recvType returns the static type of a method call's receiver
// expression (x in x.M(...)), or nil for plain function calls.
func recvType(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if _, isPkg := info.Uses[unparenIdent(sel.X)].(*types.PkgName); isPkg {
		return nil
	}
	return info.TypeOf(sel.X)
}

func unparenIdent(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// namedOf unwraps pointers and returns the named type underneath, or
// nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return nil
		}
	}
}

// isNamed reports whether t (pointers unwrapped) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj() == nil {
		return false
	}
	if n.Obj().Name() != name {
		return false
	}
	p := n.Obj().Pkg()
	return p != nil && p.Path() == pkgPath
}

// commentHasMarker reports whether any line of the comment group
// contains marker as a standalone directive (//dlht:ackgated style).
func commentHasMarker(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}

// fileHasMarker reports whether the file carries a standalone
// //<marker> directive comment anywhere.
func fileHasMarker(f *ast.File, marker string) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == marker {
				return true
			}
		}
	}
	return false
}
