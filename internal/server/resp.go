package server

import (
	"net"

	"repro/internal/ackbuf"
	core "repro/internal/core"
	"repro/internal/expiry"
	"repro/internal/resp"
)

// RESP front-end: a second listener speaking RESP2 (the Redis protocol)
// beside the binary listener, serving one Allocator-mode table so
// redis-cli, redis-benchmark and Redis client libraries work unmodified.
//
// A RESP connection is the other codec over the per-connection engine
// (internal/engine) a binary one runs on: its own table handle, the same
// pipelined GET with the deadline checked at completion, and on a durable
// table the same redo log and no-ack-before-fsync discipline.
//
// What a table has one of is the expiry.Index — the clock — shared by
// every connection and the background crawler. Durable
// tables bring their own (wal.Store owns it); for RAM tables the server
// creates one lazily, along with a crawler running on a dedicated handle.

// ServeRESP accepts RESP2 connections on ln until Close. Like Serve it
// always returns a non-nil error; after Close the error is
// ErrServerClosed. The served table is Options.RESPTable.
func (s *Server) ServeRESP(ln net.Listener) error {
	return s.acceptLoop(ln, func() { s.respLns = append(s.respLns, ln) }, s.serveRESPConn)
}

// ListenAndServeRESP listens on addr and calls ServeRESP.
func (s *Server) ListenAndServeRESP(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.ServeRESP(ln)
}

func (s *Server) serveRESPConn(c net.Conn) {
	tbl := s.Table(s.opts.RESPTable)
	if tbl == nil {
		respRefuse(c, "ERR no table registered under the RESP table name")
		return
	}
	ix, err := s.expiryFor(tbl) // nil unless tbl is in kv mode, which resp.Serve refuses
	if err != nil {
		respRefuse(c, "ERR busy: "+err.Error())
		return
	}
	h, err := s.acquireHandle(tbl)
	if err != nil {
		respRefuse(c, "ERR busy: too many connections")
		return
	}
	defer s.releaseHandle(h)
	resp.Serve(c, resp.ServeOpts{
		Table:       tbl,
		Handle:      h,
		Expiry:      ix,
		Log:         s.walFor(tbl),
		ReadBuffer:  s.opts.ReadBuffer,
		WriteBuffer: s.opts.WriteBuffer,
		IdleTimeout: s.opts.IdleTimeout,
	})
}

// respRefuse answers a connection the server cannot serve with one RESP
// error line and gives up on it.
func respRefuse(c net.Conn, msg string) {
	w := ackbuf.New(c, nil, len(msg)+3, 0)
	w.Commit(append(append(append(w.Buf(), '-'), msg...), '\r', '\n'))
	w.Flush()
}

// expiryFor returns tbl's shared expiry.Index, creating it (with a crawler
// on a dedicated handle) on first use for RAM tables. Durable tables
// register their store-owned one in AddDurable — the store's own KV and
// crawler read it. Every connection that can run a KV op on the table —
// RESP and binary alike — asks here before it starts, so the crawler
// runs before the first of them does. Tables that are not in Allocator
// mode take no KV ops and have none (nil).
func (s *Server) expiryFor(tbl *core.Table) (*expiry.Index, error) {
	if tbl.Mode() != core.Allocator {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrServerClosed
	}
	if ix := s.expiries[tbl]; ix != nil {
		return ix, nil
	}
	ix := expiry.New(nil)
	h, err := tbl.Handle()
	if err != nil {
		return nil, err
	}
	sw := expiry.Bind(h, ix, nil).StartSweeper(0)
	s.expiries[tbl] = ix
	s.sweepers = append(s.sweepers, respSweeper{sw: sw, h: h})
	return ix, nil
}
