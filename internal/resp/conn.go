package resp

import (
	"errors"
	"net"
	"strconv"
	"time"

	"repro/internal/ackbuf"
	core "repro/internal/core"
	"repro/internal/expiry"
)

// WAL is what a durable table's redo log gives a connection (satisfied by
// *wal.Log; a local interface keeps this package free of a wal
// dependency, like exec.WAL): the records the KV state machine appends,
// and the sync the reply writer waits on before a reply byte reaches the
// socket.
type WAL interface {
	expiry.RedoLog
	ackbuf.Syncer
}

// ServeOpts wires one RESP connection to its table.
type ServeOpts struct {
	// Table and Handle: the Allocator-mode table and this connection's
	// own handle (the one-handle-per-goroutine contract; the caller
	// acquires and releases it).
	Table  *core.Table
	Handle *core.Handle
	// Expiry is the table's expiry clock and stripe locks, shared with
	// every other connection and the background crawler. Nil gives the
	// connection a private one: single-connection embedding only.
	Expiry *expiry.Index
	// Log is the durable table's redo log; nil for RAM tables.
	Log WAL
	// ReadBuffer/WriteBuffer size the connection buffers (default 64 KiB).
	ReadBuffer, WriteBuffer int
	// IdleTimeout mirrors server.Options.IdleTimeout.
	IdleTimeout time.Duration
}

// arenaRetain bounds the in-flight GET key arena a connection keeps
// between bursts; kvEpochEvery is the epoch-refresh cadence (matches the
// binary serve loop).
const (
	arenaRetain  = 1 << 20
	kvEpochEvery = 1 << 10
)

// conn is one RESP connection's state: the command reader, the reply
// writer, and the streaming lookup pipeline whose completions write GET
// replies in enqueue order.
type conn struct {
	c   net.Conn
	o   ServeOpts
	r   *Reader
	w   *ackbuf.Writer
	pl  *core.KVPipeline
	tbl *core.Table
	h   *core.Handle
	kv  expiry.KV // every command that is not a pipelined GET goes through it

	ns     uint16 // SELECTed namespace
	closed bool   // QUIT; packed beside ns, the struct's only sub-word fields
	kvOps  int
	arena  []byte // keys of in-flight GETs; reset when the pipeline drains

	// clk is the expiry clock, sampled once per read burst: GET
	// completions compare their pair's deadline with it. dead holds the
	// keys (arena slices) of the GETs that found theirs passed and answered
	// nil; the next barrier has them deleted.
	clk  expiry.Clock
	dead [][]byte
}

// Serve runs the RESP2 command loop on c until the peer disconnects, a
// protocol error desyncs the stream, or QUIT. The handle stays owned by
// the caller.
func Serve(c net.Conn, o ServeOpts) {
	if o.ReadBuffer <= 0 {
		o.ReadBuffer = 64 << 10
	}
	if o.WriteBuffer <= 0 {
		o.WriteBuffer = 64 << 10
	}
	if o.Expiry == nil {
		o.Expiry = expiry.New(nil)
	}
	cn := &conn{
		c: c, o: o, tbl: o.Table, h: o.Handle,
		r:   NewReader(c, o.ReadBuffer),
		w:   ackbuf.New(c, o.Log, o.WriteBuffer, o.IdleTimeout),
		kv:  expiry.Bind(o.Handle, o.Expiry, o.Log),
		clk: o.Expiry.Clock(),
	}
	if cn.tbl.Mode() != core.Allocator {
		cn.writeError("ERR table is not in kv (Allocator) mode; RESP requires a kv table")
		cn.w.Flush()
		return
	}
	cn.pl = cn.h.KVPipeline(core.KVPipelineOpts{OnComplete: func(g *core.KVGet) {
		switch {
		case !g.OK:
			cn.writeNull()
		case expiry.Dead(g.Meta, cn.clk.Now()):
			// The deadline came with the value; the delete needs the stripe
			// lock and an empty pipeline, so it waits for the barrier.
			cn.dead = append(cn.dead, g.Key)
			cn.writeNull()
		default:
			cn.writeBulk(g.Value)
		}
	}})
	defer cn.pl.Close()
	// Drain-before-blocking: whenever the reader is about to wait on the
	// peer, complete the in-flight lookups and push their replies (after
	// the covering group commit) — the peer may be waiting for them. With
	// every value copied into the reply buffer, the handle drops its epoch
	// pin, so an idle connection does not hold back reclamation for the
	// whole table. What it reads next is a new burst, with a new clock
	// sample.
	cn.r.OnFill = func() {
		cn.barrier()
		cn.h.Unpin()
		cn.w.Flush()
		cn.clk.Reset()
	}

	var cmd Command
	for !cn.closed && cn.w.Err() == nil {
		cn.armIdle()
		if err := cn.r.ReadCommand(&cmd); err != nil {
			if errors.Is(err, ErrProtocol) {
				// Pending pipelined GET replies precede the error: the
				// stream up to the bad byte was valid and was dispatched.
				cn.barrier()
				cn.writeError("ERR Protocol error: " + err.Error())
			}
			break
		}
		if len(cmd.Args) == 0 {
			continue
		}
		cn.dispatch(&cmd)
		// Epoch cadence: with no value views in flight, let blocks
		// deleted by other connections (and the sweeper) reclaim.
		if cn.kvOps++; cn.kvOps&(kvEpochEvery-1) == 0 && cn.pl.InFlight() == 0 {
			cn.h.AdvanceEpoch()
		}
	}
	cn.barrier()
	cn.w.Flush()
}

func (cn *conn) armIdle() {
	if cn.o.IdleTimeout > 0 {
		cn.c.SetReadDeadline(time.Now().Add(cn.o.IdleTimeout))
	}
}

// barrier completes every in-flight lookup (their replies are written by
// OnComplete, preserving order), deletes the pairs those lookups found
// expired — the locked check-and-delete, KV.Expired — and recycles the key
// arena. Every command that writes a reply inline — anything but GET/MGET
// enqueues — runs behind it, so it sees a table without the pairs an
// earlier GET of the same batch already answered nil for.
func (cn *conn) barrier() {
	if cn.pl.InFlight() > 0 {
		cn.pl.Flush()
	}
	for _, key := range cn.dead {
		cn.kv.Expired(cn.ns, key, cn.tbl.HashOfKV(cn.ns, key))
	}
	cn.dead = cn.dead[:0]
	if len(cn.arena) > 0 && cn.pl.InFlight() == 0 {
		if cap(cn.arena) > arenaRetain {
			cn.arena = nil
		} else {
			cn.arena = cn.arena[:0]
		}
	}
}

// retain copies a key into the arena, giving it a lifetime past the
// current command — in-flight pipelined GETs hold their keys until
// completion, while Command.Raw is reused per command.
func (cn *conn) retain(b []byte) []byte {
	off := len(cn.arena)
	cn.arena = append(cn.arena, b...)
	return cn.arena[off : off+len(b) : off+len(b)]
}

// ---------------------------------------------------------------------------
// Reply writers: each appends one RESP value to the ack-gated buffer
// ---------------------------------------------------------------------------

func (cn *conn) writeSimple(s string) {
	cn.w.Commit(append(append(append(cn.w.Buf(), '+'), s...), '\r', '\n'))
}

func (cn *conn) writeError(msg string) {
	cn.w.Commit(append(append(append(cn.w.Buf(), '-'), msg...), '\r', '\n'))
}

// writeHeader appends a type byte, a decimal and CRLF: an integer reply, or
// the length line of a bulk string or array.
func (cn *conn) writeHeader(typ byte, n int64) {
	b := strconv.AppendInt(append(cn.w.Buf(), typ), n, 10)
	cn.w.Commit(append(b, '\r', '\n'))
}

func (cn *conn) writeInt(n int64) { cn.writeHeader(':', n) }

func (cn *conn) writeArrayHeader(n int) { cn.writeHeader('*', int64(n)) }

func (cn *conn) writeNull() { cn.w.Commit(append(cn.w.Buf(), "$-1\r\n"...)) }

func (cn *conn) writeBulk(v []byte) {
	b := strconv.AppendInt(append(cn.w.Buf(), '$'), int64(len(v)), 10)
	b = append(append(b, '\r', '\n'), v...)
	cn.w.Commit(append(b, '\r', '\n'))
}
