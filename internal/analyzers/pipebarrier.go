package analyzers

// pipebarrier: a streaming KVPipeline completes lookups out of band;
// any direct KV operation on the handle (a synchronous read, an
// upsert, a delete) that runs while lookups are still in flight can
// observe or produce state the pending completions then contradict —
// replies reorder across the mutation. The contract on the serving
// path: methods of a struct that owns a *core.KVPipeline — directly, or
// through a field that owns one, as a codec's connection owns its
// engine's — must drain it (Barrier / Flush / drainTo) before
// touching the table directly.
//
// The pass finds the owning struct types, then
// checks each of their methods: a direct KV call — a handle operation
// (GetKV, GetKVMeta, InsertKV*, UpsertKV*, ReplaceKVIf,
// UpdateKV, DeleteKV*) not on
// the pipeline itself, or any method of the TTL'd-KV state machine
// (expiry.KV), which runs handle operations on the owner's handle —
// must be positionally preceded by a drain call.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var PipeBarrier = &Analyzer{
	Name: "pipebarrier",
	Doc:  "KVPipeline owners must drain the pipeline before direct KV table operations",
	Run:  runPipeBarrier,
}

var pipeDrains = map[string]bool{
	"Barrier": true, "Flush": true, "drainTo": true,
}

var directKVOps = map[string]bool{
	"GetKV": true, "GetKVMeta": true, "UpdateKV": true, "ReplaceKVIf": true,
	"InsertKV": true, "InsertKVHashed": true, "UpsertKVHashed": true,
	"DeleteKV": true, "DeleteKVHashed": true, "DeleteKVIf": true,
}

func runPipeBarrier(p *Pass) {
	owners := pipelineOwners(p)
	if len(owners) == 0 {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			recv := fd.Recv.List[0].Type
			rt := p.Info.TypeOf(recv)
			n := namedOf(rt)
			if n == nil || !owners[n.Obj().Name()] {
				continue
			}
			checkPipeBarrier(p, fd)
		}
	}
}

// pipelineOwners returns the names of struct types in this package that
// own a KVPipeline.
func pipelineOwners(p *Pass) map[string]bool {
	owners := make(map[string]bool)
	scope := p.Pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && ownsKVPipeline(tn.Type(), map[*types.Named]bool{}) {
			owners[name] = true
		}
	}
	return owners
}

// ownsKVPipeline reports whether t is a struct type with a field whose
// type is (a pointer to) a type named KVPipeline, or to a struct type
// that owns one: a codec's connection holding the engine that holds the
// pipeline owns it too, from whichever package. seen breaks cycles.
func ownsKVPipeline(t types.Type, seen map[*types.Named]bool) bool {
	n := namedOf(t)
	if n == nil || seen[n] {
		return false
	}
	seen[n] = true
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if fn := namedOf(st.Field(i).Type()); fn != nil && (fn.Obj().Name() == "KVPipeline" || ownsKVPipeline(fn, seen)) {
			return true
		}
	}
	return false
}

func checkPipeBarrier(p *Pass, fd *ast.FuncDecl) {
	var drains []token.Pos
	var direct []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if pipeDrains[name] {
			drains = append(drains, call.Pos())
			return true
		}
		if (directKVOps[name] && !onType(p, call, "KVPipeline")) || onType(p, call, "KV") {
			direct = append(direct, call)
		}
		return true
	})
	for _, c := range direct {
		drained := false
		for _, d := range drains {
			if d < c.Pos() {
				drained = true
				break
			}
		}
		if !drained {
			p.Reportf(c.Pos(),
				"%s: direct KV op %s on a KVPipeline-owning type with no barrier/Flush before it; in-flight completions may reorder across it",
				fd.Name.Name, calleeName(c))
		}
	}
}

// onType reports whether the call's receiver is a value of the named
// type: calls on the KVPipeline are the streaming path, not a bypass;
// calls on a KV are direct operations whatever their name.
func onType(p *Pass, call *ast.CallExpr, name string) bool {
	rt := recvType(p.Info, call)
	if rt == nil {
		return false
	}
	n := namedOf(rt)
	return n != nil && n.Obj().Name() == name
}
