package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/ackbuf"
	core "repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expiry"
	"repro/internal/wal"
)

// Options tunes a Server. The zero value is usable.
type Options struct {
	// ReadBuffer and WriteBuffer size the per-connection buffers (default
	// engine.BufferSize each). The read buffer bounds how much of a
	// pipeline burst a single syscall can pick up; it is the initial size,
	// grown for a frame larger than it. The write buffer sets the
	// streaming-flush threshold — accumulated responses are pushed to the
	// wire once they exceed half of it, so a deep burst's first responses
	// reach the client while its tail is still being decoded.
	ReadBuffer, WriteBuffer int
	// IdleTimeout bounds how long a connection may sit without completing
	// a read or write before the server closes it, so a stalled or
	// vanished peer cannot wedge a connection goroutine (and its table
	// handle) forever. It is applied as a read deadline while waiting for
	// the next frame and as a write deadline around response flushes.
	// 0 (the default) disables it.
	IdleTimeout time.Duration
	// RESPTable names the table the RESP2 listener serves (see ServeRESP);
	// the default is DefaultTable. The table must be in Allocator (kv)
	// mode.
	RESPTable string
}

func (o *Options) setDefaults() {
	if o.WriteBuffer <= 0 {
		o.WriteBuffer = engine.BufferSize
	}
}

// DefaultTable is the name a handshake with an empty table selector
// resolves to.
const DefaultTable = ""

// Server serves one or more named DLHT tables over TCP. Each connection
// picks its table in the handshake and is read by one goroutine, which
// executes the decoded requests on a table handle the connection owns (the
// paper's one-handle-per-thread contract), recycled when it closes — so a
// table's Config.MaxThreads bounds its concurrent connections.
type Server struct {
	opts Options

	mu      sync.Mutex
	tables  map[string]*core.Table
	walLogs map[*core.Table]engine.WAL // durable tables' redo logs
	ln      net.Listener
	conns   map[net.Conn]struct{}
	closed  bool

	// handleFree is closed and replaced each time a connection returns its
	// table handle, waking every acquireHandle waiting out ErrTooManyHandles
	// (broadcast semantics; a 1-buffered channel would drop wakeups under
	// reconnect storms).
	handleMu   sync.Mutex
	handleFree chan struct{}

	// RESP front-end state (resp.go): extra listeners, the per-table
	// expiry clock-and-locks shared by everything that runs KV ops, and the
	// crawlers the server owns for RAM tables (durable tables' belong to
	// their wal.Store).
	// Guarded by mu.
	respLns  []net.Listener
	expiries map[*core.Table]*expiry.Index
	sweepers []respSweeper

	wg sync.WaitGroup
}

// respSweeper pairs a server-owned TTL sweeper with the dedicated table
// handle it deletes through, so Close can stop one and release the other.
type respSweeper struct {
	sw *expiry.Sweeper
	h  *core.Handle
}

// New creates a Server serving tbl as its default table. Register further
// named tables with AddTable before calling Serve.
func New(tbl *core.Table, opts Options) *Server {
	opts.setDefaults()
	return &Server{
		opts:       opts,
		tables:     map[string]*core.Table{DefaultTable: tbl},
		walLogs:    make(map[*core.Table]engine.WAL),
		conns:      make(map[net.Conn]struct{}),
		handleFree: make(chan struct{}),
		expiries:   make(map[*core.Table]*expiry.Index),
	}
}

// AddTable registers tbl under name, making it selectable by a
// handshake. Registering DefaultTable replaces the table New installed.
func (s *Server) AddTable(name string, tbl *core.Table) error {
	if len(name) > MaxTableName {
		return fmt.Errorf("%w: table name %d bytes (max %d)", ErrBadFrame, len(name), MaxTableName)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[name] = tbl
	return nil
}

// AddDurable registers ds's table under name (DefaultTable replaces the
// table New installed) and pairs it with ds's redo log, so every
// connection serving it — binary and RESP alike — appends effective
// mutations and withholds response bytes from the socket until a group
// commit covers them. The caller keeps ownership of ds: close it
// after the server's Close returns.
func (s *Server) AddDurable(name string, ds *wal.Store) error {
	if err := s.AddTable(name, ds.Table()); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.walLogs[ds.Table()] = ds.Log()
	if ix := ds.Expiry(); ix != nil {
		// The store's own KV and crawler lock through this Index; the
		// server's connections must share it, not a server-created sibling.
		s.expiries[ds.Table()] = ix
	}
	return nil
}

// walFor returns the redo log paired with tbl, or nil for RAM tables.
// Held as an interface, a RAM table's is a true nil, never a typed one
// that would pass != nil checks.
func (s *Server) walFor(tbl *core.Table) engine.WAL {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walLogs[tbl]
}

// Table returns the table registered under name, or nil.
func (s *Server) Table(name string) *core.Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tables[name]
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("server: closed")

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It always returns a non-nil
// error; after Close the error is ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	return s.acceptLoop(ln, func() { s.ln = ln }, s.serveConn)
}

// acceptLoop is the accept loop behind Serve and ServeRESP: it records the
// listener through register (called under mu), then runs serve on its own
// goroutine for every accepted connection, tracked so Close can close the
// connection and wait for the goroutine.
func (s *Server) acceptLoop(ln net.Listener, register func(), serve func(net.Conn)) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	register()
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.removeConn(c)
			defer c.Close()
			serve(c)
		}()
	}
}

// Addr returns the listener's address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the listener, closes every live connection, waits for the
// connection goroutines to drain, then stops the server-owned TTL
// sweepers. No request completion fires and no table handle stays acquired
// after Close returns.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	respLns := s.respLns
	s.respLns = nil
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, rl := range respLns {
		rl.Close()
	}
	s.wg.Wait()
	s.mu.Lock()
	sweepers := s.sweepers
	s.sweepers = nil
	s.mu.Unlock()
	// Stop server-owned TTL sweepers after every connection is gone, then
	// release their dedicated handles.
	for _, rs := range sweepers {
		rs.sw.Stop()
		rs.h.Close()
	}
	return err
}

// handleWait bounds how long a new connection waits for a handle to be
// released before refusing with StatusBusy.
const handleWait = 200 * time.Millisecond

// testHandleWait, when non-nil, is invoked by acquireHandle each time it
// is about to wait for a release. Test-only: it tells a test the moment a
// release will wake the waiter rather than find it not yet waiting.
var testHandleWait func()

// acquireHandle takes a handle on tbl. On exhaustion it blocks until a
// closing connection releases one (releaseHandle broadcasts) instead of
// sleep-polling, so reconnect storms under handle churn are admitted the
// moment a handle frees rather than after a fixed poll interval.
func (s *Server) acquireHandle(tbl *core.Table) (*core.Handle, error) {
	h, err := tbl.Handle()
	if err == nil {
		return h, nil
	}
	timeout := time.NewTimer(handleWait)
	defer timeout.Stop()
	for {
		// Capture the current broadcast channel BEFORE retrying: a release
		// landing between the retry and the wait then shows up as a closed
		// channel instead of a lost wakeup.
		s.handleMu.Lock()
		ch := s.handleFree
		s.handleMu.Unlock()
		if h, err = tbl.Handle(); err == nil {
			return h, nil
		}
		if testHandleWait != nil {
			testHandleWait()
		}
		select {
		case <-ch:
		case <-timeout.C:
			return nil, err
		}
	}
}

// releaseHandle returns a connection's handle to its table and wakes every
// acquireHandle waiter.
func (s *Server) releaseHandle(h *core.Handle) {
	h.Close()
	s.handleMu.Lock()
	close(s.handleFree)
	s.handleFree = make(chan struct{})
	s.handleMu.Unlock()
}

func (s *Server) removeConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// testFrameDecoded, when non-nil, is invoked by the parser for every fixed
// op once it has been handed to the engine. Test-only: the streaming
// test blocks a burst's last frame here to prove earlier responses already
// reached the wire.
var testFrameDecoded func(core.Op)

// errRefused ends a connection the handshake turned away.
var errRefused = errors.New("server: connection refused")

// serveConn serves one binary connection: engine.Serve reads it, and the
// binary parser answers the handshake, then decodes requests onto the
// engine of a table handle the connection owns.
func (s *Server) serveConn(c net.Conn) {
	if s.opts.IdleTimeout > 0 {
		// Bounds the handshake and a busy refusal; once the connection is
		// admitted, the engine's idle step re-arms it before every read.
		c.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
	}
	bc := &binConn{s: s, c: c}
	defer bc.close()
	engine.Serve(c, s.opts.ReadBuffer, bc.idle, bc.parse)
}

// binConn is one binary connection: the parser and reply encoders over the
// connection's engine. Fixed ops and GetKVs stream through the engine's
// pipelines; KV mutations and reshard requests answer inline behind a
// barrier. On a durable table every effective mutation is logged as it
// completes, and its reply waits for the record's group commit.
type binConn struct {
	*engine.Engine // nil until the handshake admits the connection
	s              *Server
	c              net.Conn
	w              *ackbuf.Writer // nil until the handshake is answered
	tbl            *core.Table
	features       uint16
}

// close completes what is in flight, flushes the replies and gives the
// handle back.
func (bc *binConn) close() {
	if bc.Engine != nil {
		bc.Close()
		bc.s.releaseHandle(bc.H)
	}
}

// idle is the engine's idle step once the connection is admitted.
func (bc *binConn) idle() error {
	if bc.Engine == nil {
		return nil
	}
	return bc.Idle()
}

// parse is the binary codec's engine.Parser: the handshake, then the
// busy refusal or the requests.
func (bc *binConn) parse(buf []byte) (used, need int, err error) {
	switch {
	case bc.Engine != nil:
		return bc.requests(buf)
	case bc.w == nil:
		return bc.hello(buf)
	}
	return bc.refuseBusy(buf)
}

// hello answers the handshake — version check, table selection, feature
// grant — and admits the connection to a handle of its own. A connection
// that does not open with HelloMagic (a client of the retired
// handshake-less protocol, or garbage) is refused the way an unsupported
// version is: one StatusBadVersion handshake reply, then close. A
// truncated handshake gets no answer.
func (bc *binConn) hello(buf []byte) (used, need int, err error) {
	if len(buf) == 0 {
		return 0, 1, nil
	}
	resp := HelloResp{Version: ProtocolV2, Status: StatusBadVersion}
	if buf[0] == HelloMagic {
		hello, n, err := DecodeHello(buf)
		if err != nil { // short: the magic matched
			need = HelloFixedSize
			if len(buf) >= HelloFixedSize {
				need += int(buf[4])
			}
			return 0, need, nil
		}
		used = n
		if hello.Version == ProtocolV2 {
			if bc.tbl = bc.s.Table(hello.Table); bc.tbl == nil {
				resp.Status = StatusUnknownTable
			} else {
				resp.Status, resp.Features = StatusOK, hello.Features&supportedFeatures
			}
		}
	}
	s := bc.s
	bc.w = ackbuf.New(bc.c, s.walFor(bc.tbl), s.opts.WriteBuffer, s.opts.IdleTimeout)
	bc.w.Commit(AppendHelloResp(bc.w.Buf(), resp))
	if bc.w.Flush() != nil || resp.Status != StatusOK {
		return used, 0, errRefused
	}
	bc.features = resp.Features
	ix, err := s.expiryFor(bc.tbl) // before the handle: the index may need one for its sweeper
	if err != nil {
		return used, 1, nil
	}
	h, err := s.acquireHandle(bc.tbl)
	if err != nil {
		return used, 1, nil
	}
	w := bc.w
	bc.Engine = engine.New(engine.Opts{
		Handle: h, Expiry: ix, Log: s.walFor(bc.tbl), Writer: w,
		OnFixed: func(op *core.Op) { w.Commit(AppendResponse(w.Buf(), opToResp(op))) },
		OnGet:   bc.replyGet,
	})
	return used, 0, nil
}

// refuseBusy waits for the connection's first request so the refusal obeys
// the i-th-response-answers-i-th-request rule, then answers it with
// StatusBusy — in the shape the request asked for — and gives up on the
// connection.
func (bc *binConn) refuseBusy(buf []byte) (used, need int, err error) {
	if len(buf) == 0 {
		return 0, 1, nil
	}
	if isKVOp(OpCode(buf[0])) {
		bc.w.Commit(AppendKVResponse(bc.w.Buf(), KVResponse{Status: StatusBusy}))
	} else {
		bc.w.Commit(AppendResponse(bc.w.Buf(), Response{Status: StatusBusy}))
	}
	bc.w.Flush()
	return 0, 0, errRefused
}

// requests is the binary request decoder. Fixed 17-byte frames are
// decoded in place and enqueued as they are decoded; KV and reshard frames
// are handed over one at a time, their keys and values slicing buf. It
// stops at the first frame not wholly buffered and asks for its size. A
// malformed frame gets the decodable prefix answered, then one
// StatusBadRequest, and the connection is given up: byte alignment is no
// longer trusted. A writer failure ends the connection.
func (bc *binConn) requests(buf []byte) (used, need int, err error) {
	for bc.W.Err() == nil {
		rest := buf[used:]
		if len(rest) == 0 {
			return used, 1, nil
		}
		n := 0
		switch op := OpCode(rest[0]); {
		case op < opCodeEnd:
			if len(rest) < ReqSize {
				return used, ReqSize, nil
			}
			req, _ := DecodeRequest(rest) // cannot fail: whole frame, opcode checked
			op := reqToOp(req)
			bc.Enqueue(op)
			if testFrameDecoded != nil {
				testFrameDecoded(op)
			}
			n = ReqSize
		case isKVOp(op) && bc.features&FeatureKV != 0:
			req, size, err := DecodeKVRequest(rest)
			if errors.Is(err, ErrShortFrame) {
				if len(rest) < KVReqHdrSize {
					return used, KVReqHdrSize, nil
				}
				// The header is valid: the frame is the header, the key
				// and the value whose lengths it carries.
				klen := int(binary.LittleEndian.Uint16(rest[3:5]))
				return used, KVReqHdrSize + klen + int(binary.LittleEndian.Uint32(rest[5:9])), nil
			}
			if err != nil {
				return used, 0, bc.bad()
			}
			bc.kv(req)
			n = size
		case isReshardOp(op) && bc.features&FeatureReshard != 0:
			n = GetVerReqSize
			if op == OpScan {
				n = ScanReqSize
			}
			if len(rest) < n {
				return used, n, nil
			}
			bc.reshard(op, rest[:n])
		default:
			return used, 0, bc.bad()
		}
		used += n
	}
	return used, 0, bc.W.Err()
}

// bad answers, behind everything accepted so far, with one
// StatusBadRequest, and gives up on the connection; the engine's Close
// flushes the answer.
func (bc *binConn) bad() error {
	bc.Barrier()
	bc.W.Commit(AppendResponse(bc.W.Buf(), Response{Status: StatusBadRequest}))
	return ErrBadFrame
}

// replyGet answers a GetKV as its lookup completes. The value view is
// copied into the reply buffer inside the completion, while the handle's
// epoch pin still keeps a concurrent DeleteKV from another connection from
// freeing the block — one reason Allocator tables served over the network
// need Config.EpochGC (expiry.Bind refuses them without it).
func (bc *binConn) replyGet(val []byte, ok bool) {
	r := KVResponse{Status: StatusNotFound}
	if ok {
		r = KVResponse{Status: StatusOK, Value: val}
	}
	bc.W.Commit(AppendKVResponse(bc.W.Buf(), r))
}

// kv answers one KV request. Key and Value slice the read buffer and are
// valid only during the call. CheckKV gates every request first: the
// local KV surface panics on mode and namespace misuse (API-misuse
// contract), but over the wire those are statuses, answered in order
// behind a barrier. A GetKV streams through the engine, which checks the
// pair's deadline at completion; a mutation runs behind a barrier.
func (bc *binConn) kv(req KVRequest) {
	err := bc.tbl.CheckKV(req.NS, req.Key, req.Value, req.Op == OpInsertKV)
	if err == nil && req.Op == OpGetKV {
		bc.Get(req.NS, req.Key, bc.tbl.HashOfKV(req.NS, req.Key))
		return
	}
	bc.Barrier()
	r, seq := KVResponse{Status: errToStatus(err)}, uint64(0)
	if err == nil {
		r, seq = execKV(bc.KV, req, bc.tbl.HashOfKV(req.NS, req.Key))
	}
	bc.W.NeedSync(seq)
	bc.W.Commit(AppendKVResponse(bc.W.Buf(), r))
}

// execKV runs one KV mutation on the connection's expiry.KV — an insert as
// SET NX, which keeps InsertKV's ErrExists contract — returning the reply
// and the redo sequence it must wait for. A failed log append becomes the
// op's status; the log's failure is sticky, so the writer's next flush
// ends the connection.
func execKV(kv expiry.KV, req KVRequest, hash uint64) (KVResponse, uint64) {
	if req.Op == OpInsertKV {
		set, seq, err := kv.Set(req.NS, req.Key, req.Value, hash, 0, expiry.NX)
		if err == nil && !set {
			err = core.ErrExists
		}
		return KVResponse{Status: errToStatus(err)}, seq
	}
	ok, seq, err := kv.Delete(req.NS, req.Key, hash)
	if err == nil && !ok {
		return KVResponse{Status: StatusNotFound}, 0
	}
	return KVResponse{Status: errToStatus(err)}, seq
}

// reshard answers one OpGetVer or OpScan. Both are read-only — nothing is
// logged — and sit behind the same barrier as KV mutations.
func (bc *binConn) reshard(op OpCode, frame []byte) {
	bc.Barrier()
	if bc.W.Err() != nil {
		return
	}
	out := bc.W.Buf()
	switch {
	case bc.tbl.Mode() == core.Allocator:
		// Value words are block refs: neither frame reads them, and the
		// reply is the frame's size with a zero body.
		size := GetVerRespSize
		if op == OpScan {
			size = ScanRespHdrSize
		}
		var reply [ScanRespHdrSize]byte
		reply[0] = byte(StatusWrongMode)
		out = append(out, reply[:size]...)
	case op == OpGetVer:
		v, ok, ver := bc.H.GetVer(binary.LittleEndian.Uint64(frame[1:9]))
		st := StatusOK
		if !ok {
			st, v = StatusNotFound, 0
		}
		out = append(out, byte(st))
		out = binary.LittleEndian.AppendUint64(out, v)
		out = binary.LittleEndian.AppendUint64(out, ver)
	default:
		cur := core.Cursor{
			Bins: binary.LittleEndian.Uint64(frame[1:9]),
			Next: binary.LittleEndian.Uint64(frame[9:17]),
		}
		maxEnts := int(binary.LittleEndian.Uint32(frame[17:21]))
		if maxEnts <= 0 || maxEnts > MaxScanBatch {
			maxEnts = MaxScanBatch
		}
		// The cap clamps the request; the reply may overshoot it by the
		// last bin group (ScanStep consumes whole cursor bins — truncating
		// here would lose the overflow, the cursor is already past it).
		ents, next, done := bc.H.ScanStep(cur, maxEnts, nil)
		out = append(out, byte(StatusOK))
		out = binary.LittleEndian.AppendUint64(out, next.Bins)
		out = binary.LittleEndian.AppendUint64(out, next.Next)
		d := byte(0)
		if done {
			d = 1
		}
		out = append(out, d)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(ents)))
		for _, e := range ents {
			out = binary.LittleEndian.AppendUint64(out, e.Key)
			out = binary.LittleEndian.AppendUint64(out, e.Value)
		}
	}
	bc.W.Commit(out)
}

// reqToOp maps a wire request onto a batch op.
func reqToOp(r Request) core.Op {
	var k core.OpKind
	switch r.Op {
	case OpGet:
		k = core.OpGet
	case OpPut:
		k = core.OpPut
	case OpInsert:
		k = core.OpInsert
	case OpDelete:
		k = core.OpDelete
	}
	return core.Op{Kind: k, Key: r.Key, Value: r.Value}
}

// opToResp maps an executed op's outcome onto a wire response. The batch
// engine stores its sentinel errors unwrapped, so plain comparisons suffice
// — an errors.Is chain would walk six wrap chains per failed op on the hot
// path.
func opToResp(op *core.Op) Response {
	if op.OK {
		return Response{Status: StatusOK, Result: op.Result}
	}
	// dlht:ok:sentinelcmp — op.Err holds unwrapped core sentinels by
	// contract (the table never wraps); see the function comment.
	switch op.Err {
	case nil:
		// Get/Put/Delete miss.
		return Response{Status: StatusNotFound}
	case core.ErrExists:
		return Response{Status: StatusExists, Result: op.Result}
	case core.ErrShadow:
		return Response{Status: StatusShadow}
	case core.ErrFull:
		return Response{Status: StatusFull}
	case core.ErrReservedKey:
		return Response{Status: StatusReservedKey}
	case core.ErrWrongMode:
		return Response{Status: StatusWrongMode}
	}
	return Response{Status: StatusBadRequest}
}
