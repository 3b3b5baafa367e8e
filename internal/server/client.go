package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	core "repro/internal/core"
)

// Client is a pipelined protocol client. It is not safe for concurrent use;
// open one per goroutine (mirroring the one-handle-per-goroutine contract
// on the server side).
//
// DialV2 and NewClientV2 open every connection with the handshake, which
// selects the table and negotiates features such as the variable-length KV
// surface (GetKV/InsertKV/DeleteKV) for Allocator-mode tables.
//
// The pipelining surface is Send/Flush/Recv: queue any number of requests,
// flush, then receive responses in request order. On top of it sits the
// completion-driven shape mirroring the server's Pipeline API: callbacks
// (SendAsync/GetAsync/... + Drain). The Get/Put/Insert/Delete helpers are
// one-request pipelines for convenience and tests. Client also implements the backend-independent
// dlht Store surface (sync helpers + Pipe), so code written against Store
// drives a remote table unchanged.
//
// The shapes may be mixed on one connection: every request's completion
// slot is tracked in order, Recv dispatches any async completions queued
// ahead of the next plain response, and Drain stops at the first plain
// response so Recv can claim it.
type Client struct {
	c        net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	inflight int

	features uint16 // granted by the handshake

	// readTimeout/writeTimeout, when set, are armed as connection
	// deadlines around blocking reads and flushes so a stalled server
	// cannot wedge the caller forever.
	readTimeout, writeTimeout time.Duration

	// Redial state. addr is the original dial target ("" when the client
	// was built over a caller-supplied conn and cannot redial); broken is
	// the sticky transport error after a connection failure — the next
	// use redials when the retry policy allows. Redial attempts are
	// rate-limited by the policy's backoff schedule (redialFails /
	// nextRedial) so a dead shard costs one dial per backoff step, not
	// one per operation.
	addr        string
	dialOpts    ClientOpts
	retry       RetryPolicy
	broken      error
	rng         uint64
	redialFails int
	nextRedial  time.Time

	// pend tracks one completion slot per in-flight request, in request
	// order: a zero slot for a plain Send (consumed by Recv), cb for an
	// async fixed-frame send, kvcb for a KV send. A power-of-two ring
	// addressed by absolute head/tail counters.
	pend           []pending
	cbHead, cbTail int
}

// pending is one in-flight request's completion slot. At most one of the
// callbacks is non-nil; it also encodes the response frame shape (kvcb
// non-nil means the next response is variable-length).
type pending struct {
	cb   func(Response)
	kvcb func(KVResponse)
}

// ClientOpts configures DialV2/NewClientV2.
type ClientOpts struct {
	// Table selects the named server table this connection operates on
	// ("" = the default table).
	Table string
	// Features is the requested feature set; 0 requests the ordinary
	// client set (currently FeatureKV). FeatureReshard is deliberately
	// NOT in the default — granting it pins the connection to the
	// server's conn-owned loop, opting out of executor-mode serving, so
	// only the cluster coordinator and scrubber request it. The granted
	// set is available via Features().
	Features uint16
	// ReadTimeout/WriteTimeout bound blocking reads and flushes. 0
	// disables the respective deadline.
	ReadTimeout, WriteTimeout time.Duration
	// Retry enables transparent redial and bounded per-operation retry
	// for the synchronous helpers (Get/Put/Insert/Delete and the KV
	// forms) on retryable failures — see IsRetryable. The zero value
	// disables retries; DefaultRetry is a sensible starting point.
	// Retried writes are at-least-once: a retried Insert whose first
	// attempt was applied but whose ack was lost reports the key as
	// already present.
	Retry RetryPolicy
}

// DialTCP dials addr, rejecting TCP self-connections. On Linux, dialing
// a dead port on the local host can succeed via TCP simultaneous-open
// when the kernel assigns the socket an ephemeral source port equal to
// the destination port: the socket connects to ITSELF, and every read
// returns the caller's own bytes — which this protocol's symmetric hello
// would happily accept as a server. All client dial paths (including
// redial and the cluster's failure-detector probe) must go through this
// guard; a crashed shard whose port lands in the ephemeral range would
// otherwise yield phantom acks instead of a connection error.
func DialTCP(addr string, timeout time.Duration) (net.Conn, error) {
	d := net.Dialer{Timeout: timeout}
	c, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if c.LocalAddr().String() == c.RemoteAddr().String() {
		c.Close()
		return nil, fmt.Errorf("dial tcp %s: self-connected socket (no listener)", addr)
	}
	return c, nil
}

// DialV2 connects to a server at addr and performs the protocol
// handshake. With opts.Retry.Max > 0 the client remembers addr and opts
// and transparently redials (re-running the handshake) after a transport
// failure, with the policy's capped exponential backoff.
func DialV2(addr string, opts ClientOpts) (*Client, error) {
	c, err := DialTCP(addr, 0)
	if err != nil {
		return nil, err
	}
	cl, err := NewClientV2(c, opts)
	if err != nil {
		c.Close()
		return nil, err
	}
	cl.addr = addr
	cl.dialOpts = opts
	return cl, nil
}

// NewClientV2 wraps an established connection and performs the
// handshake on it. On a non-OK handshake reply the returned error is the
// status's sentinel (ErrUnknownTable, ErrBadVersion, ...) and the
// connection is left to the caller to close.
func NewClientV2(c net.Conn, opts ClientOpts) (*Client, error) {
	cl := &Client{
		c:            c,
		br:           bufio.NewReaderSize(c, 64<<10),
		bw:           bufio.NewWriterSize(c, 64<<10),
		pend:         make([]pending, 16),
		readTimeout:  opts.ReadTimeout,
		writeTimeout: opts.WriteTimeout,
		retry:        opts.Retry,
		rng:          opts.Retry.Seed,
	}
	if cl.rng == 0 {
		cl.rng = uint64(time.Now().UnixNano())
	}
	if err := cl.handshake(opts); err != nil {
		return nil, err
	}
	return cl, nil
}

// clientDefaultFeatures is what a ClientOpts.Features of 0 requests: the
// ordinary client surface, without FeatureReshard (see ClientOpts).
const clientDefaultFeatures = FeatureKV

// handshake runs the hello exchange on the current connection.
func (cl *Client) handshake(opts ClientOpts) error {
	features := opts.Features
	if features == 0 {
		features = clientDefaultFeatures
	}
	hello, err := AppendHello(nil, Hello{Version: ProtocolV2, Features: features, Table: opts.Table})
	if err != nil {
		return err
	}
	cl.armWrite()
	if _, err := cl.c.Write(hello); err != nil {
		return err
	}
	var buf [HelloRespSize]byte
	cl.armRead()
	if _, err := io.ReadFull(cl.br, buf[:]); err != nil {
		return err
	}
	resp, err := DecodeHelloResp(buf[:])
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return resp.Status.Err()
	}
	if resp.Version != ProtocolV2 {
		return fmt.Errorf("%w: server granted version %d", ErrBadVersion, resp.Version)
	}
	cl.features = resp.Features
	return nil
}

// Err returns the sticky transport error that broke the connection, nil
// while it is healthy. A broken redialable client heals on its next use.
func (cl *Client) Err() error { return cl.broken }

// abort marks the connection dead with a sticky error, closes it, and
// drops every in-flight completion slot — after a transport failure no
// further response can be matched, so the slots are unrecoverable.
// Pipelined users (clientPipe) deliver failure completions for their
// outstanding requests themselves before calling abort.
func (cl *Client) abort(err error) {
	if cl.broken == nil {
		cl.broken = err
	}
	cl.c.Close()
	cl.cbHead, cl.cbTail, cl.inflight = 0, 0, 0
	for i := range cl.pend {
		cl.pend[i] = pending{}
	}
}

// ensureConn redials a broken connection when the retry policy allows.
// Attempts are rate-limited by the policy's backoff schedule: a dead
// shard costs one dial per backoff step, and every suppressed call
// returns the sticky error immediately.
func (cl *Client) ensureConn() error {
	if cl.broken == nil {
		return nil
	}
	if cl.addr == "" || cl.retry.Max == 0 {
		return cl.broken
	}
	if !cl.nextRedial.IsZero() && time.Now().Before(cl.nextRedial) {
		return cl.broken
	}
	pol := cl.retry.norm()
	c, err := DialTCP(cl.addr, pol.DialTimeout)
	if err == nil {
		cl.c = c
		cl.br.Reset(c)
		cl.bw.Reset(c)
		if err = cl.handshake(cl.dialOpts); err != nil {
			c.Close()
		}
	}
	if err != nil {
		cl.redialFails++
		cl.nextRedial = time.Now().Add(pol.Backoff(cl.redialFails, &cl.rng))
		return err
	}
	cl.broken = nil
	cl.redialFails = 0
	cl.nextRedial = time.Time{}
	return nil
}

// Close closes the underlying connection and disables redial.
func (cl *Client) Close() error {
	cl.addr = ""
	if cl.broken == nil {
		cl.broken = net.ErrClosed
	}
	return cl.c.Close()
}

// Inflight returns the number of requests sent but not yet received.
func (cl *Client) Inflight() int { return cl.inflight }

// Features returns the feature set granted by the handshake.
func (cl *Client) Features() uint16 { return cl.features }

// SetTimeouts sets the read/write deadlines applied around blocking reads
// and flushes (0 disables). DialV2 callers usually set them via ClientOpts.
func (cl *Client) SetTimeouts(read, write time.Duration) {
	cl.readTimeout, cl.writeTimeout = read, write
}

// armRead arms the connection read deadline from ReadTimeout.
func (cl *Client) armRead() {
	if cl.readTimeout > 0 {
		cl.c.SetReadDeadline(time.Now().Add(cl.readTimeout))
	}
}

// armWrite arms the connection write deadline from WriteTimeout.
func (cl *Client) armWrite() {
	if cl.writeTimeout > 0 {
		cl.c.SetWriteDeadline(time.Now().Add(cl.writeTimeout))
	}
}

// Send queues one request into the write buffer. The frame is appended
// directly into the bufio writer's spare capacity (no staging copy).
func (cl *Client) Send(r Request) error { return cl.send(r, nil) }

// SendAsync queues one request whose response will be delivered to cb by a
// later Recv or Drain on this client, in request order. cb must be
// non-nil.
func (cl *Client) SendAsync(r Request, cb func(Response)) error {
	if cb == nil {
		return errors.New("server: SendAsync: nil callback")
	}
	return cl.send(r, cb)
}

func (cl *Client) send(r Request, cb func(Response)) error {
	if cl.broken != nil {
		return cl.broken
	}
	if _, err := cl.bw.Write(AppendRequest(cl.bw.AvailableBuffer(), r)); err != nil {
		cl.abort(err)
		return err
	}
	cl.push(pending{cb: cb})
	return nil
}

// SendKV queues one variable-length KV request whose response will be
// delivered to cb in request order, like SendAsync. Requires FeatureKV
// granted.
func (cl *Client) SendKV(r KVRequest, cb func(KVResponse)) error {
	if cb == nil {
		return errors.New("server: SendKV: nil callback")
	}
	if cl.features&FeatureKV == 0 {
		return fmt.Errorf("%w: KV frames", ErrFeature)
	}
	if cl.broken != nil {
		return cl.broken
	}
	frame, err := AppendKVRequest(cl.bw.AvailableBuffer(), r)
	if err != nil {
		return err
	}
	if _, err := cl.bw.Write(frame); err != nil {
		cl.abort(err)
		return err
	}
	cl.push(pending{kvcb: cb})
	return nil
}

// push appends one completion slot to the pending ring.
func (cl *Client) push(p pending) {
	if cl.cbHead-cl.cbTail == len(cl.pend) {
		cl.growPend()
	}
	cl.pend[cl.cbHead&(len(cl.pend)-1)] = p
	cl.cbHead++
	cl.inflight++
}

func (cl *Client) growPend() {
	next := make([]pending, len(cl.pend)*2)
	for i := cl.cbTail; i < cl.cbHead; i++ {
		next[i&(len(next)-1)] = cl.pend[i&(len(cl.pend)-1)]
	}
	cl.pend = next
}

// Flush pushes all queued requests to the wire.
func (cl *Client) Flush() error {
	if cl.broken != nil {
		return cl.broken
	}
	cl.armWrite()
	if err := cl.bw.Flush(); err != nil {
		cl.abort(err)
		return err
	}
	return nil
}

// headPending returns the oldest in-flight request's completion slot (the
// zero slot when raw callers Recv more than they Send).
func (cl *Client) headPending() pending {
	if cl.cbTail < cl.cbHead {
		return cl.pend[cl.cbTail&(len(cl.pend)-1)]
	}
	return pending{}
}

// headIsPlain reports whether the next response belongs to a plain Send.
func (cl *Client) headIsPlain() bool {
	p := cl.headPending()
	return p.cb == nil && p.kvcb == nil
}

// popPending consumes the oldest completion slot.
func (cl *Client) popPending() {
	if cl.cbTail < cl.cbHead {
		cl.pend[cl.cbTail&(len(cl.pend)-1)] = pending{}
		cl.cbTail++
	}
	cl.inflight--
}

// recvStep receives exactly one response frame — fixed or variable-length,
// per the oldest slot's shape — and dispatches it if it belongs to an
// async send. plain is true when the response belongs to a plain Send and
// is returned to the caller instead.
func (cl *Client) recvStep() (r Response, plain bool, err error) {
	if cl.broken != nil {
		return Response{}, false, cl.broken
	}
	head := cl.headPending()
	if head.kvcb != nil {
		kr, err := cl.readKVResponse()
		if err != nil {
			cl.abort(err)
			return Response{}, false, err
		}
		cl.popPending()
		head.kvcb(kr)
		return Response{}, false, nil
	}
	var b [RespSize]byte
	cl.armRead()
	if _, err := io.ReadFull(cl.br, b[:]); err != nil {
		// The stream is unrecoverable mid-frame: no later response can be
		// matched to its request, so the connection is dead.
		cl.abort(err)
		return Response{}, false, err
	}
	cl.popPending()
	r, err = DecodeResponse(b[:])
	if err != nil {
		cl.abort(err)
		return r, false, err
	}
	if head.cb != nil {
		head.cb(r)
		return Response{}, false, nil
	}
	return r, true, nil
}

// readKVResponse reads one variable-length response frame.
func (cl *Client) readKVResponse() (KVResponse, error) {
	var hdr [KVRespHdrSize]byte
	cl.armRead()
	if _, err := io.ReadFull(cl.br, hdr[:]); err != nil {
		return KVResponse{}, err
	}
	vlen := int(binary.LittleEndian.Uint32(hdr[1:5]))
	if vlen > MaxKVValue {
		return KVResponse{}, fmt.Errorf("%w: value length %d exceeds %d", ErrBadFrame, vlen, MaxKVValue)
	}
	r := KVResponse{Status: Status(hdr[0])}
	if vlen > 0 {
		r.Value = make([]byte, vlen)
		cl.armRead()
		if _, err := io.ReadFull(cl.br, r.Value); err != nil {
			return KVResponse{}, err
		}
	}
	return r, nil
}

// Recv returns the next plain (Send) response. Responses arrive in request
// order; async responses queued ahead of the next plain one are dispatched
// to their callbacks on the way.
func (cl *Client) Recv() (Response, error) {
	for {
		r, plain, err := cl.recvStep()
		if err != nil || plain {
			return r, err
		}
	}
}

// Drain flushes queued requests and receives async responses — invoking
// their callbacks in request order — until none are outstanding. It stops
// early at a plain Send response, leaving it for Recv.
func (cl *Client) Drain() error {
	if err := cl.Flush(); err != nil {
		return err
	}
	for cl.cbTail < cl.cbHead {
		if cl.headIsPlain() {
			return nil // plain response next; Recv owns it
		}
		if _, _, err := cl.recvStep(); err != nil {
			return err
		}
	}
	return nil
}

// RecvOneAsync receives exactly one response — which must belong to an
// async send — and dispatches its callback. It is the sliding-window
// primitive for callers bounding in-flight async traffic themselves (Drain
// collapses the window to zero; this slides it by one).
func (cl *Client) RecvOneAsync() error {
	if cl.cbTail == cl.cbHead {
		return errors.New("server: RecvOneAsync: no async request outstanding")
	}
	if cl.headIsPlain() {
		return errors.New("server: RecvOneAsync: a plain Send response is queued ahead; Recv it first")
	}
	_, _, err := cl.recvStep()
	return err
}

// GetAsync queues a GET whose response is delivered to cb.
func (cl *Client) GetAsync(key uint64, cb func(Response)) error {
	return cl.SendAsync(Request{Op: OpGet, Key: key}, cb)
}

// PutAsync queues a PUT whose response is delivered to cb.
func (cl *Client) PutAsync(key, val uint64, cb func(Response)) error {
	return cl.SendAsync(Request{Op: OpPut, Key: key, Value: val}, cb)
}

// InsertAsync queues an INSERT whose response is delivered to cb.
func (cl *Client) InsertAsync(key, val uint64, cb func(Response)) error {
	return cl.SendAsync(Request{Op: OpInsert, Key: key, Value: val}, cb)
}

// DeleteAsync queues a DELETE whose response is delivered to cb.
func (cl *Client) DeleteAsync(key uint64, cb func(Response)) error {
	return cl.SendAsync(Request{Op: OpDelete, Key: key}, cb)
}

// doWindow bounds Do's in-flight requests. Unbounded pipelining deadlocks
// once in-flight response bytes overrun the kernel socket buffers: the
// server blocks writing responses the client is not yet reading, stops
// reading, and the client's Flush blocks in turn. 4096 responses are
// 36 KiB — comfortably inside default TCP buffers.
const doWindow = 4096

// Do pipelines all reqs and fills resps (which must have the same length)
// with the in-order responses. Requests are flushed in windows of doWindow
// so arbitrarily large batches cannot deadlock on socket buffers; callers
// driving Send/Flush/Recv directly must bound in-flight requests
// themselves.
func (cl *Client) Do(reqs []Request, resps []Response) error {
	if len(reqs) != len(resps) {
		return fmt.Errorf("server: Do: %d requests but %d response slots", len(reqs), len(resps))
	}
	for lo := 0; lo < len(reqs); lo += doWindow {
		hi := lo + doWindow
		if hi > len(reqs) {
			hi = len(reqs)
		}
		for _, r := range reqs[lo:hi] {
			if err := cl.Send(r); err != nil {
				return err
			}
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			r, err := cl.Recv()
			if err != nil {
				return err
			}
			resps[i] = r
		}
	}
	return nil
}

// do runs a one-request pipeline. With a retry policy set and no other
// requests in flight, retryable failures redial and reissue the request
// within the policy budget — at-least-once semantics for writes whose ack
// was lost.
func (cl *Client) do(r Request) (Response, error) {
	solo := cl.inflight == 0
	resp, err := cl.do1(r)
	if err == nil || cl.retry.Max == 0 || !solo {
		return resp, err
	}
	pol := cl.retry.norm()
	for attempt := 0; attempt < pol.Max && IsRetryable(err); attempt++ {
		time.Sleep(pol.Backoff(attempt, &cl.rng))
		resp, err = cl.do1(r)
		if err == nil {
			return resp, nil
		}
	}
	return resp, err
}

// do1 is one attempt of a one-request pipeline, redialing first if the
// connection is broken.
func (cl *Client) do1(r Request) (Response, error) {
	if err := cl.ensureConn(); err != nil {
		return Response{}, err
	}
	if err := cl.Send(r); err != nil {
		return Response{}, err
	}
	if err := cl.Flush(); err != nil {
		return Response{}, err
	}
	return cl.Recv()
}

// Get reads key; ok reports whether it was present. Statuses other than OK
// and NOT_FOUND surface as their sentinel errors (ErrBusy, core.ErrWrongMode,
// ...), so error handling matches the local Store surface.
func (cl *Client) Get(key uint64) (val uint64, ok bool, err error) {
	r, err := cl.do(Request{Op: OpGet, Key: key})
	if err != nil {
		return 0, false, err
	}
	switch r.Status {
	case StatusOK:
		return r.Result, true, nil
	case StatusNotFound:
		return 0, false, nil
	}
	return 0, false, r.Status.Err()
}

// Put overwrites an existing key and returns its previous value; ok is
// false when the key was absent.
func (cl *Client) Put(key, val uint64) (prev uint64, ok bool, err error) {
	r, err := cl.do(Request{Op: OpPut, Key: key, Value: val})
	if err != nil {
		return 0, false, err
	}
	switch r.Status {
	case StatusOK:
		return r.Result, true, nil
	case StatusNotFound:
		return 0, false, nil
	}
	return 0, false, r.Status.Err()
}

// Insert adds a new key. A StatusExists reply surfaces as (existing, false,
// nil); other non-OK statuses map to their sentinel errors.
func (cl *Client) Insert(key, val uint64) (existing uint64, inserted bool, err error) {
	r, err := cl.do(Request{Op: OpInsert, Key: key, Value: val})
	if err != nil {
		return 0, false, err
	}
	switch r.Status {
	case StatusOK:
		return 0, true, nil
	case StatusExists:
		return r.Result, false, nil
	}
	return 0, false, fmt.Errorf("server: insert: %w", r.Status.Err())
}

// Delete removes key and returns its previous value; ok is false when the
// key was absent.
func (cl *Client) Delete(key uint64) (prev uint64, ok bool, err error) {
	r, err := cl.do(Request{Op: OpDelete, Key: key})
	if err != nil {
		return 0, false, err
	}
	switch r.Status {
	case StatusOK:
		return r.Result, true, nil
	case StatusNotFound:
		return 0, false, nil
	}
	return 0, false, r.Status.Err()
}

// doKV runs a one-request KV pipeline, draining any async completions
// queued ahead of it. Retry semantics match do.
func (cl *Client) doKV(r KVRequest) (KVResponse, error) {
	solo := cl.inflight == 0
	resp, err := cl.doKV1(r)
	if err == nil || cl.retry.Max == 0 || !solo {
		return resp, err
	}
	pol := cl.retry.norm()
	for attempt := 0; attempt < pol.Max && IsRetryable(err); attempt++ {
		time.Sleep(pol.Backoff(attempt, &cl.rng))
		resp, err = cl.doKV1(r)
		if err == nil {
			return resp, nil
		}
	}
	return resp, err
}

// doKV1 is one attempt of a one-request KV pipeline.
func (cl *Client) doKV1(r KVRequest) (KVResponse, error) {
	if err := cl.ensureConn(); err != nil {
		return KVResponse{}, err
	}
	var resp KVResponse
	done := false
	if err := cl.SendKV(r, func(kr KVResponse) { resp, done = kr, true }); err != nil {
		return KVResponse{}, err
	}
	if err := cl.Flush(); err != nil {
		return KVResponse{}, err
	}
	for !done {
		if cl.headIsPlain() {
			return KVResponse{}, errors.New("server: KV request: a plain Send response is queued ahead; Recv it first")
		}
		if _, _, err := cl.recvStep(); err != nil {
			return KVResponse{}, err
		}
	}
	return resp, nil
}

// GetKV reads the byte key under namespace ns; ok reports whether it was
// present. The returned slice is freshly allocated and owned by the caller.
func (cl *Client) GetKV(ns uint16, key []byte) (val []byte, ok bool, err error) {
	r, err := cl.doKV(KVRequest{Op: OpGetKV, NS: ns, Key: key})
	if err != nil {
		return nil, false, err
	}
	switch r.Status {
	case StatusOK:
		return r.Value, true, nil
	case StatusNotFound:
		return nil, false, nil
	}
	return nil, false, r.Status.Err()
}

// InsertKV adds a byte key/value pair under namespace ns; failures map to
// the same sentinels the local KV surface returns (core.ErrExists,
// core.ErrValueSize, ...).
func (cl *Client) InsertKV(ns uint16, key, val []byte) error {
	r, err := cl.doKV(KVRequest{Op: OpInsertKV, NS: ns, Key: key, Value: val})
	if err != nil {
		return err
	}
	if r.Status == StatusOK {
		return nil
	}
	return r.Status.Err()
}

// GetVer reads key together with its applied-mutation version (the
// core.VersionReader surface) over an OpGetVer frame. Requires a
// connection granted FeatureReshard and no other requests in flight —
// the reshard frames are solo synchronous exchanges, not pipelined.
// Retryable failures redial and reissue within the retry policy, like the
// other sync helpers (the read is idempotent).
func (cl *Client) GetVer(key uint64) (val uint64, ok bool, ver uint64, err error) {
	if cl.inflight != 0 {
		return 0, false, 0, errors.New("server: GetVer: requests in flight")
	}
	val, ok, ver, err = cl.getVer1(key)
	if err == nil || cl.retry.Max == 0 {
		return val, ok, ver, err
	}
	pol := cl.retry.norm()
	for attempt := 0; attempt < pol.Max && IsRetryable(err); attempt++ {
		time.Sleep(pol.Backoff(attempt, &cl.rng))
		val, ok, ver, err = cl.getVer1(key)
		if err == nil {
			return val, ok, ver, nil
		}
	}
	return val, ok, ver, err
}

// getVer1 is one solo OpGetVer exchange.
func (cl *Client) getVer1(key uint64) (uint64, bool, uint64, error) {
	if err := cl.ensureConn(); err != nil {
		return 0, false, 0, err
	}
	if cl.features&FeatureReshard == 0 {
		return 0, false, 0, fmt.Errorf("%w: reshard frames (request FeatureReshard)", ErrFeature)
	}
	var req [GetVerReqSize]byte
	req[0] = byte(OpGetVer)
	binary.LittleEndian.PutUint64(req[1:9], key)
	if _, err := cl.bw.Write(req[:]); err != nil {
		cl.abort(err)
		return 0, false, 0, err
	}
	cl.armWrite()
	if err := cl.bw.Flush(); err != nil {
		cl.abort(err)
		return 0, false, 0, err
	}
	var resp [GetVerRespSize]byte
	cl.armRead()
	if _, err := io.ReadFull(cl.br, resp[:]); err != nil {
		cl.abort(err)
		return 0, false, 0, err
	}
	v := binary.LittleEndian.Uint64(resp[1:9])
	ver := binary.LittleEndian.Uint64(resp[9:17])
	switch Status(resp[0]) {
	case StatusOK:
		return v, true, ver, nil
	case StatusNotFound:
		// The version is meaningful on a miss too: a tombstone has one.
		return 0, false, ver, nil
	}
	return 0, false, 0, Status(resp[0]).Err()
}

// maxScanRespEnts bounds the entry count a scan reply may announce before
// the client rejects the frame as garbage. Generous: a legitimate reply
// overshoots MaxScanBatch only by the final bin group.
const maxScanRespEnts = 1 << 22

// ScanStep advances the server-side migration cursor one batch (the
// core.Scanner surface) over an OpScan frame. Same connection
// requirements as GetVer. Not retried: the cursor's consumer (the reshard
// coordinator) handles failover by restarting the pass, so a transport
// error surfaces immediately.
func (cl *Client) ScanStep(origBins, startBin uint64, maxEnts int) ([]core.Entry, uint64, uint64, bool, error) {
	if cl.inflight != 0 {
		return nil, 0, 0, false, errors.New("server: ScanStep: requests in flight")
	}
	if err := cl.ensureConn(); err != nil {
		return nil, 0, 0, false, err
	}
	if cl.features&FeatureReshard == 0 {
		return nil, 0, 0, false, fmt.Errorf("%w: reshard frames (request FeatureReshard)", ErrFeature)
	}
	if maxEnts <= 0 || maxEnts > MaxScanBatch {
		maxEnts = MaxScanBatch
	}
	var req [ScanReqSize]byte
	req[0] = byte(OpScan)
	binary.LittleEndian.PutUint64(req[1:9], origBins)
	binary.LittleEndian.PutUint64(req[9:17], startBin)
	binary.LittleEndian.PutUint32(req[17:21], uint32(maxEnts))
	if _, err := cl.bw.Write(req[:]); err != nil {
		cl.abort(err)
		return nil, 0, 0, false, err
	}
	cl.armWrite()
	if err := cl.bw.Flush(); err != nil {
		cl.abort(err)
		return nil, 0, 0, false, err
	}
	var hdr [ScanRespHdrSize]byte
	cl.armRead()
	if _, err := io.ReadFull(cl.br, hdr[:]); err != nil {
		cl.abort(err)
		return nil, 0, 0, false, err
	}
	if st := Status(hdr[0]); st != StatusOK {
		return nil, 0, 0, false, st.Err()
	}
	newOrig := binary.LittleEndian.Uint64(hdr[1:9])
	next := binary.LittleEndian.Uint64(hdr[9:17])
	done := hdr[17] != 0
	count := int(binary.LittleEndian.Uint32(hdr[18:22]))
	if count > maxScanRespEnts {
		err := fmt.Errorf("%w: scan reply announces %d entries", ErrBadFrame, count)
		cl.abort(err)
		return nil, 0, 0, false, err
	}
	var ents []core.Entry
	if count > 0 {
		ents = make([]core.Entry, count)
		buf := make([]byte, count*16)
		cl.armRead()
		if _, err := io.ReadFull(cl.br, buf); err != nil {
			cl.abort(err)
			return nil, 0, 0, false, err
		}
		for i := range ents {
			ents[i].Key = binary.LittleEndian.Uint64(buf[i*16:])
			ents[i].Value = binary.LittleEndian.Uint64(buf[i*16+8:])
		}
	}
	return ents, newOrig, next, done, nil
}

// DeleteKV removes the byte key under namespace ns; ok reports whether it
// was present.
func (cl *Client) DeleteKV(ns uint16, key []byte) (ok bool, err error) {
	r, err := cl.doKV(KVRequest{Op: OpDeleteKV, NS: ns, Key: key})
	if err != nil {
		return false, err
	}
	switch r.Status {
	case StatusOK:
		return true, nil
	case StatusNotFound:
		return false, nil
	}
	return false, r.Status.Err()
}
