package resp

import (
	"errors"
	"net"
	"strconv"
	"time"

	"repro/internal/ackbuf"
	core "repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expiry"
)

// WAL is what a durable table's redo log gives a connection; see
// engine.WAL.
type WAL = engine.WAL

// ServeOpts wires one RESP connection to its table.
type ServeOpts struct {
	// Table and Handle: the Allocator-mode table and this connection's
	// own handle (the one-handle-per-goroutine contract; the caller
	// acquires and releases it).
	Table  *core.Table
	Handle *core.Handle
	// Expiry is the table's expiry clock, shared with every other
	// connection and the background crawler. Nil gives the connection a
	// private one: single-connection embedding only.
	Expiry *expiry.Index
	// Log is the durable table's redo log; nil for RAM tables.
	Log WAL
	// ReadBuffer/WriteBuffer size the connection buffers (default
	// engine.BufferSize); a command larger than the read buffer grows it.
	ReadBuffer, WriteBuffer int
	// IdleTimeout mirrors server.Options.IdleTimeout.
	IdleTimeout time.Duration
}

// conn is one RESP connection: the command parser and the codec over the
// connection's engine. GET and MGET stream through the engine's lookup
// pipeline, whose completions write their replies in enqueue order; every
// other command answers inline behind a barrier.
type conn struct {
	*engine.Engine
	p       parser
	tbl     *core.Table
	ns      uint16 // SELECTed namespace
	closed  bool   // QUIT
	durable bool
}

// errQuit ends a connection after QUIT's reply.
var errQuit = errors.New("resp: quit")

// Serve runs the RESP2 command loop on c until the peer disconnects, a
// protocol error desyncs the stream, or QUIT. The handle stays owned by
// the caller.
func Serve(c net.Conn, o ServeOpts) {
	if o.WriteBuffer <= 0 {
		o.WriteBuffer = engine.BufferSize
	}
	if o.Expiry == nil {
		o.Expiry = expiry.New(nil)
	}
	cn := &conn{tbl: o.Table, durable: o.Log != nil}
	cn.Engine = engine.New(engine.Opts{
		Handle: o.Handle, Expiry: o.Expiry, Log: o.Log,
		Writer: ackbuf.New(c, o.Log, o.WriteBuffer, o.IdleTimeout),
		OnGet:  cn.replyGet,
	})
	defer cn.Close()
	if cn.tbl.Mode() != core.Allocator {
		cn.writeError("ERR table is not in kv (Allocator) mode; RESP requires a kv table")
		return
	}
	engine.Serve(c, o.ReadBuffer, cn.Idle, cn.parse)
}

// parse is the RESP codec's engine.Parser: it dispatches every whole
// command buf begins with.
func (cn *conn) parse(buf []byte) (used, need int, err error) {
	for !cn.closed {
		if err := cn.W.Err(); err != nil {
			return used, 0, err
		}
		n, need, err := cn.p.next(buf[used:])
		if err != nil {
			// Pending pipelined GET replies precede the error: the
			// stream up to the bad byte was valid and was dispatched.
			cn.Barrier()
			cn.writeError("ERR Protocol error: " + err.Error())
			return used, 0, err
		}
		if n == 0 {
			return used, need, nil
		}
		used += n
		if len(cn.p.args) > 0 {
			cn.dispatch(cn.p.args)
		}
	}
	return used, 0, errQuit
}

// ---------------------------------------------------------------------------
// Reply writers: each appends one RESP value to the ack-gated buffer
// ---------------------------------------------------------------------------

// replyGet answers a GET as its lookup completes.
func (cn *conn) replyGet(val []byte, ok bool) {
	if ok {
		cn.writeBulk(val)
	} else {
		cn.writeNull()
	}
}

func (cn *conn) writeSimple(s string) {
	cn.W.Commit(append(append(append(cn.W.Buf(), '+'), s...), '\r', '\n'))
}

func (cn *conn) writeError(msg string) {
	cn.W.Commit(append(append(append(cn.W.Buf(), '-'), msg...), '\r', '\n'))
}

// writeHeader appends a type byte, a decimal and CRLF: an integer reply, or
// the length line of a bulk string or array.
func (cn *conn) writeHeader(typ byte, n int64) {
	b := strconv.AppendInt(append(cn.W.Buf(), typ), n, 10)
	cn.W.Commit(append(b, '\r', '\n'))
}

func (cn *conn) writeInt(n int64) { cn.writeHeader(':', n) }

func (cn *conn) writeArrayHeader(n int) { cn.writeHeader('*', int64(n)) }

func (cn *conn) writeNull() { cn.W.Commit(append(cn.W.Buf(), "$-1\r\n"...)) }

func (cn *conn) writeBulk(v []byte) {
	b := strconv.AppendInt(append(cn.W.Buf(), '$'), int64(len(v)), 10)
	b = append(append(b, '\r', '\n'), v...)
	cn.W.Commit(append(b, '\r', '\n'))
}
