// Package engine is the per-connection serving engine both wire codecs —
// binary frames (internal/server) and RESP2 (internal/resp) — run on: the
// paper's one thread, one handle, one ordered batch (§3.3), written once.
// It owns the handle with its fixed-op Pipeline and, on an Allocator-mode
// table, a KVPipeline whose Gets visit their block once, after its
// prefetch; the expiry.KV binding and the burst clock a Get's completion
// checks the pair's deadline against; the key arena and dead-key queue;
// the reply writer; the idle step; the epoch cadence; and the connection's
// inbound bytes, read by Serve, the one read loop, into one buffer a
// codec's non-blocking Parser decodes in place. Replies leave in request
// order: each pipeline completes in order, an op entering one pipeline
// first drains the other, and an inline reply runs behind Barrier.
package engine

//dlht:hotpath

import (
	"io"
	"slices"

	"repro/internal/ackbuf"
	core "repro/internal/core"
	"repro/internal/expiry"
)

// WAL is what a durable table's redo log gives a connection (satisfied by
// *wal.Log; a local interface keeps this package free of a wal
// dependency): the state step the KV state machine logs through, the
// record of a fixed op that completed on the connection's handle, and the
// sync the reply writer waits on before a reply byte reaches the socket.
type WAL interface {
	expiry.RedoLog
	ackbuf.Syncer
	LogFixed(h *core.Handle, op *core.Op) (uint64, error)
}

// Opts wires an engine to its connection.
type Opts struct {
	Handle *core.Handle // the connection's own; the caller acquires and releases it
	// Expiry is the table's clock, shared with every connection and the
	// crawler; nil on a table not in Allocator mode.
	Expiry *expiry.Index
	Log    WAL // nil for a RAM table
	Writer *ackbuf.Writer
	// OnFixed and OnGet encode a fixed op's and a Get's reply as it
	// completes. On a durable table a fixed op is logged first, and its
	// reply waits for the record's sync. OnGet's value view is valid only
	// during the call.
	OnFixed func(*core.Op)
	OnGet   func(val []byte, ok bool)
}

// BufferSize is the default size of a connection's read buffer and reply
// buffer.
const BufferSize = 64 << 10

// epochEvery is the epoch-refresh cadence in ops. The key arena kept
// between barriers and the read buffer kept between frames are bounded
// like the reply buffer, by ackbuf.Retain.
const epochEvery = 1 << 10

// Engine is one connection's serving state, owned by its goroutine.
type Engine struct {
	H  *core.Handle
	KV expiry.KV // every KV op but a pipelined Get; call Barrier first
	W  *ackbuf.Writer

	p       *core.Pipeline
	kp      *core.KVPipeline // nil unless the table is in Allocator mode
	clk     expiry.Clock     // sampled once per read burst
	log     WAL              // nil for a RAM table
	onFixed func(*core.Op)
	onGet   func([]byte, bool)
	arena   []byte       // keys of in-flight Gets
	dead    []core.KVGet // (ns, arena key) of each Get that found its pair dead
	ops     int          // since the last epoch advance
}

// New builds a connection's engine.
func New(o Opts) *Engine {
	e := &Engine{
		H: o.Handle, KV: expiry.Bind(o.Handle, o.Expiry, o.Log), W: o.Writer,
		clk: o.Expiry.Clock(), log: o.Log, onFixed: o.OnFixed, onGet: o.OnGet,
	}
	onFixed := o.OnFixed
	if o.Log != nil {
		onFixed = e.logFixed
	}
	e.p = e.H.Pipeline(core.PipelineOpts{OnComplete: onFixed})
	if e.H.Table().Mode() == core.Allocator {
		e.kp = e.H.KVPipeline(core.KVPipelineOpts{OnComplete: e.complete})
	}
	return e
}

// Now is the burst clock's sample, what a relative TTL counts from.
func (e *Engine) Now() int64 { return e.clk.Now() }

// Enqueue admits a fixed op.
func (e *Engine) Enqueue(op core.Op) {
	if e.kp != nil && e.kp.InFlight() > 0 {
		e.kp.Flush()
	}
	e.ops++
	e.p.Enqueue(op)
}

// Get admits a lookup of a key Table.CheckKV accepts, with its
// Table.HashOfKV hash. The key is copied: the caller may reuse its buffer.
func (e *Engine) Get(ns uint16, key []byte, hash uint64) {
	if e.p.InFlight() > 0 {
		e.p.Flush()
	}
	e.ops++
	off := len(e.arena)
	e.arena = append(e.arena, key...)
	e.kp.GetHashed(ns, e.arena[off:len(e.arena):len(e.arena)], hash)
}

// logFixed is a fixed op's completion on a durable table: log the op,
// make its reply wait for the record's sync, and encode the reply. A log
// failure fails the writer, so nothing after it is acknowledged.
func (e *Engine) logFixed(op *core.Op) {
	seq, err := e.log.LogFixed(e.H, op)
	if err != nil {
		e.W.Fail(err)
		return
	}
	e.W.NeedSync(seq)
	e.onFixed(op)
}

// complete is a Get's completion. The deadline came with the value: a dead
// pair answers as a miss, and its delete, a direct table op that needs an
// empty pipeline, waits for the barrier.
func (e *Engine) complete(g *core.KVGet) {
	if g.OK && expiry.Dead(g.Meta, e.clk.Now()) {
		e.dead = append(e.dead, core.KVGet{NS: g.NS, Key: g.Key})
		e.onGet(nil, false)
		return
	}
	e.onGet(g.Value, g.OK)
}

// Barrier completes everything in flight; has the pairs those Gets found
// dead deleted (KV.Expired re-checks each pair before its conditional
// delete), so the op
// behind it sees a table without them; recycles the key arena; and, with
// no value view in flight, refreshes the handle's epoch when it is due, so
// blocks other connections deleted reclaim.
func (e *Engine) Barrier() {
	e.ops++
	e.p.Flush()
	if e.kp != nil {
		e.kp.Flush()
		for _, d := range e.dead {
			e.KV.Expired(d.NS, d.Key, e.H.Table().HashOfKV(d.NS, d.Key))
		}
		e.dead = e.dead[:0]
		if cap(e.arena) > ackbuf.Retain {
			e.arena = nil
		} else {
			e.arena = e.arena[:0]
		}
	}
	if e.ops >= epochEvery {
		e.ops = 0
		e.H.AdvanceEpoch()
	}
}

// Idle readies the connection to block on a read: the peer may be waiting
// for the replies so far. With every value copied out, the handle drops
// its epoch pin — an idle connection must not hold back reclamation for
// the table — and the next read starts a burst with a new clock sample.
func (e *Engine) Idle() error {
	e.Barrier()
	e.H.Unpin()
	e.clk.Reset()
	err := e.W.Flush()
	e.W.ArmRead()
	return err
}

// Close completes what is in flight and flushes the replies. The handle
// stays the caller's.
func (e *Engine) Close() {
	e.Barrier()
	e.W.Flush()
}

// Parser is a codec's non-blocking decoder. It hands the engine every
// whole request buf begins with — keys, values and arguments slice buf and
// are valid only during the call — and returns the bytes it consumed and
// how many bytes, counted from buf[used:], the request it stopped at needs
// before it can go on. A parser that consumed nothing asks for more than
// it was given. A non-nil error ends the connection.
type Parser func(buf []byte) (used, need int, err error)

// Serve is a connection's one read loop. It reads src into one buffer of
// size bytes (BufferSize if size <= 0) and hands the unconsumed bytes to
// parse. Only when parse needs more bytes than are buffered does it call
// idle — the peer may be waiting for the replies so far — and read; the
// buffer is then compacted, grown to the frame parse asked for, or, once
// a frame that grew it past ackbuf.Retain is consumed, set back to size.
// Serve returns parse's error, idle's, or the read's.
func Serve(src io.Reader, size int, idle func() error, parse Parser) error {
	if size <= 0 {
		size = BufferSize
	}
	buf := make([]byte, size)
	r, w := 0, 0 // buf[r:w] is read and not yet consumed
	for {
		used, need, err := parse(buf[r:w])
		if err != nil {
			return err
		}
		r += used
		if w-r >= need {
			continue
		}
		n := w - r
		switch {
		case need > len(buf):
			// Append's growth policy: a frame far larger than the
			// buffer gets its size, and a command that asks for more a
			// bulk at a time is copied in amortised linear work.
			buf = slices.Grow(buf[r:w:w], need-n)
			buf = buf[:cap(buf)]
		case len(buf) > max(size, ackbuf.Retain) && need <= size:
			buf = append(make([]byte, 0, size), buf[r:w]...)[:size]
		case r > 0:
			copy(buf, buf[r:w])
		}
		r, w = 0, n
		for w < need {
			if err := idle(); err != nil {
				return err
			}
			m, err := src.Read(buf[w:])
			w += m
			if m == 0 {
				if err == nil {
					err = io.ErrNoProgress
				}
				return err
			}
		}
	}
}
