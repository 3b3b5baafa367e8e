// Package ackbuf holds the one writer through which reply bytes reach a
// socket. Serving code appends reply frames to the writer's buffer and
// raises the redo-log sequence those frames depend on; only Flush touches
// the connection, and it first waits for the group commit covering that
// sequence. The buffer is a plain byte slice, so an append can only grow
// it — it can never push older, possibly unsynced bytes out mid-append the
// way a bufio.Writer does when a write overflows its free space. The
// no-ack-before-fsync rule therefore holds by construction for every
// caller, whatever the size of the reply.
package ackbuf

import (
	"net"
	"time"
)

// Syncer is the group-commit side of a durable table's redo log
// (*wal.Log): SyncWait blocks until an fsync covers seq, or returns the
// log's sticky failure.
type Syncer interface {
	SyncWait(seq uint64) error
}

// Retain bounds the buffer capacity a Writer keeps between flushes; a
// reply that grew the buffer past it is served from a one-off allocation.
const Retain = 1 << 20

// Writer buffers one connection's replies. It is not safe for concurrent
// use: one goroutine owns it at a time.
type Writer struct {
	c       net.Conn
	sync    Syncer // nil for RAM tables
	buf     []byte
	seq     uint64 // highest log sequence the buffered bytes depend on
	err     error  // first sync or write failure; sticky
	size    int    // initial capacity; replies stream out once half of it is buffered
	timeout time.Duration
}

// New returns a Writer for c with a size-byte buffer that streams out once
// half full. sync is nil for a table without a redo log; a positive
// timeout is the connection's idle bound, armed as the write deadline
// around every socket write and, by ArmRead, as the read deadline.
func New(c net.Conn, sync Syncer, size int, timeout time.Duration) *Writer {
	return &Writer{
		c: c, sync: sync, buf: make([]byte, 0, size),
		size: size, timeout: timeout,
	}
}

// ArmRead arms the connection's read deadline before a read that can
// block, so a peer that stops sending cannot pin the connection.
func (w *Writer) ArmRead() {
	if w.timeout > 0 {
		w.c.SetReadDeadline(time.Now().Add(w.timeout))
	}
}

// Buf returns the buffered reply bytes. Append one reply to the result and
// hand it back through Commit before the next call to any method.
func (w *Writer) Buf() []byte { return w.buf }

// Commit adopts b — Buf's result plus appended reply bytes — as the buffer
// and flushes once it has reached the streaming threshold. After a failure
// the bytes are dropped.
func (w *Writer) Commit(b []byte) {
	w.buf = b
	if w.err != nil {
		w.reset()
	} else if len(b) >= w.size/2 {
		w.Flush()
	}
}

// NeedSync records that the replies appended since the last flush, and any
// appended before the next one, acknowledge the log record with sequence
// seq.
func (w *Writer) NeedSync(seq uint64) {
	if seq > w.seq {
		w.seq = seq
	}
}

// Fail makes err the sticky error unless one is already set, so a reply
// path that cannot log its mutation stops the connection from
// acknowledging anything further.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
		w.reset()
	}
}

// Err returns the sticky error: the first failed sync, socket write, or
// Fail.
func (w *Writer) Err() error { return w.err }

// Flush waits for the group commit covering every buffered reply, then
// writes them to the connection. It is the only function in the tree that
// puts reply bytes on a socket.
//
//dlht:ackgated
func (w *Writer) Flush() error {
	if w.err != nil || len(w.buf) == 0 {
		return w.err
	}
	if w.sync != nil {
		if err := w.sync.SyncWait(w.seq); err != nil {
			w.Fail(err)
			return err
		}
		w.seq = 0
	}
	if w.timeout > 0 {
		w.c.SetWriteDeadline(time.Now().Add(w.timeout))
	}
	_, w.err = w.c.Write(w.buf)
	w.reset()
	return w.err
}

// reset empties the buffer, giving back capacity beyond the retain bound.
func (w *Writer) reset() {
	if cap(w.buf) > max(w.size, Retain) {
		w.buf = make([]byte, 0, w.size)
	} else {
		w.buf = w.buf[:0]
	}
}
