package analyzers

// ackgate: in durable-serving reply paths, no byte may reach the
// socket before the group commit covering it — PRs 6 and 8 each
// re-discovered by hand that bufio.Writer auto-flushes mid-Write when
// the buffer fills, leaking unsynced acks. Since PR 14 replies reach a
// socket through one function, internal/ackbuf's Writer.Flush, and this
// pass guards that site (and any future one): functions that write
// response bytes opt in with a //dlht:ackgated doc comment; inside
// them, every socket-bound sink (bufio.Writer Write/WriteString/
// WriteByte/Flush, net.Conn Write) must be preceded by a covering
// gate: a call to syncPending(), SyncWait(seq), Synced(), or flush().
//
// "Preceded" is positional within the function body (including its
// nested literals) — a deliberate over-approximation that matches how
// a reply writer is shaped: the gate opens at the top, the sinks
// follow. Restructuring a writer so a sink precedes every gate is
// exactly the regression this pass exists to catch.

import (
	"go/ast"
	"go/token"
)

const ackMarker = "dlht:ackgated"

var AckGate = &Analyzer{
	Name: "ackgate",
	Doc:  "reply writers marked //dlht:ackgated must gate socket-bound bytes behind a covering sync",
	Run:  runAckGate,
}

var ackGates = map[string]bool{
	"syncPending": true, "SyncWait": true, "Synced": true, "flush": true,
}

var bufioSinks = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Flush": true, "ReadFrom": true,
}

func runAckGate(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !commentHasMarker(fd.Doc, ackMarker) {
				continue
			}
			checkAckGate(p, fd)
		}
	}
}

func checkAckGate(p *Pass, fd *ast.FuncDecl) {
	var gates []token.Pos
	var sinks []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if ackGates[name] {
			gates = append(gates, call.Pos())
			return true
		}
		if isSocketSink(p, call, name) {
			sinks = append(sinks, call)
		}
		return true
	})
	for _, s := range sinks {
		gated := false
		for _, g := range gates {
			if g < s.Pos() {
				gated = true
				break
			}
		}
		if !gated {
			p.Reportf(s.Pos(),
				"%s: %s may push unsynced bytes to the socket with no covering gate (syncPending/SyncWait) before it in this //dlht:ackgated function",
				fd.Name.Name, calleeName(s))
		}
	}
}

// isSocketSink: a method call that can move buffered reply bytes
// toward the peer — anything on a *bufio.Writer, or Write on a
// net.Conn.
func isSocketSink(p *Pass, call *ast.CallExpr, name string) bool {
	rt := recvType(p.Info, call)
	if rt == nil {
		return false
	}
	if bufioSinks[name] && isNamed(rt, "bufio", "Writer") {
		return true
	}
	return name == "Write" && isNamed(rt, "net", "Conn")
}
