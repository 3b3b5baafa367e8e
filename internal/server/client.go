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
// Every request the client accepts is one pending record: the response
// frame to expect, the request's identity, and where its outcome goes.
// Responses arrive in request order, so recvOne always completes the oldest
// record, and a transport failure completes every record still pending with
// the error, in order, before the call that hit it returns — each accepted
// request gets exactly one completion. The synchronous methods (Get, Put,
// GetKV, GetVer, ...) and the Pipe (storepipe.go) are both thin layers over
// that one path: a pipe enqueues and receives once its window is full, a
// synchronous method enqueues one record and receives until it completes —
// completing whatever a still-open Pipe has in flight ahead of it on the
// way. Together they implement the backend-independent dlht Store surface,
// so code written against Store drives a remote table unchanged.
type Client struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer

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
	policy      RetryPolicy
	broken      error
	rng         uint64
	redialFails int
	nextRedial  time.Time

	// pend holds the in-flight requests in request order: a power-of-two
	// ring addressed by the absolute counters tail (oldest pending) and
	// head (next to be accepted). flushed is the head as of the last
	// flush: records below it are on the wire, so receiving the oldest
	// flushes only when its frame is still in the write buffer — one
	// flush, and so one write syscall, per window rather than per request.
	pend                []pending
	head, tail, flushed int

	// frame is the staging buffer fixed-size request frames are encoded
	// into on their way to the write buffer.
	frame [32]byte
}

// pending is one in-flight request: op fixes the response frame to read,
// op and key identify the request in its completion, and exactly one of
// the sinks takes the outcome.
type pending struct {
	op   OpCode
	key  uint64
	pipe *clientPipe // a Pipe's request: completes through its OnComplete
	out  *reply      // a synchronous request: the caller's reply
}

// reply is one decoded response of any frame shape — every response leads
// with a status; what follows depends on the request's opcode — or, in err,
// the transport failure that completed the request instead.
type reply struct {
	Response        // status, and the fixed and GetVer frames' value word
	ver      uint64 // GetVer
	value    []byte // KV frames
	err      error

	// Scan frames: the batch and the cursor to thread into the next step.
	ents []core.Entry
	cur  core.Cursor
	done bool
}

// ClientOpts configures DialV2/NewClientV2.
type ClientOpts struct {
	// Table selects the named server table this connection operates on
	// ("" = the default table).
	Table string
	// Features is the requested feature set; 0 requests the ordinary
	// client set (currently FeatureKV). FeatureReshard is deliberately
	// NOT in the default: only the cluster coordinator and scrubber
	// request it. The granted set is available via Features().
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
		policy:       opts.Retry,
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

// Features returns the feature set granted by the handshake.
func (cl *Client) Features() uint16 { return cl.features }

// Close closes the underlying connection and disables redial. Requests
// still in flight complete with net.ErrClosed before Close returns; nothing
// completes after it.
func (cl *Client) Close() error {
	cl.addr = ""
	err := cl.c.Close()
	cl.abort(net.ErrClosed)
	return err
}

// abort marks the connection dead with a sticky error, closes it, and
// completes every pending request with err, oldest first — after a
// transport failure no further response can be matched to its request.
// A completion callback may already be reusing the client (a redial, new
// requests), so only the records pending on entry are failed.
func (cl *Client) abort(err error) {
	if cl.broken == nil {
		cl.broken = err
	}
	cl.c.Close()
	failed := reply{err: err}
	for end := cl.head; cl.tail < end; {
		cl.complete(cl.pop(), &failed)
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
	if cl.addr == "" || cl.policy.Max == 0 {
		return cl.broken
	}
	if !cl.nextRedial.IsZero() && time.Now().Before(cl.nextRedial) {
		return cl.broken
	}
	pol := cl.policy.norm()
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

// enqueue accepts one request: it redials a broken connection if the
// policy allows, checks that the handshake granted the frame family, and
// queues the encoded frame behind the record that will take its response.
// An error means the request was not accepted and no completion will come.
func (cl *Client) enqueue(p pending, frame []byte) error {
	if err := cl.ensureConn(); err != nil {
		return err
	}
	switch {
	case isKVOp(p.op) && cl.features&FeatureKV == 0:
		return fmt.Errorf("%w: KV frames", ErrFeature)
	case isReshardOp(p.op) && cl.features&FeatureReshard == 0:
		return fmt.Errorf("%w: reshard frames (request FeatureReshard)", ErrFeature)
	}
	if _, err := cl.bw.Write(frame); err != nil {
		cl.abort(err)
		return err
	}
	cl.push(p)
	return nil
}

// push appends one record to the pending ring, doubling it when full.
func (cl *Client) push(p pending) {
	if cl.head-cl.tail == len(cl.pend) {
		next := make([]pending, len(cl.pend)*2)
		for i := cl.tail; i < cl.head; i++ {
			next[i&(len(next)-1)] = cl.pend[i&(len(cl.pend)-1)]
		}
		cl.pend = next
	}
	cl.pend[cl.head&(len(cl.pend)-1)] = p
	cl.head++
}

// pop removes and returns the oldest pending record.
func (cl *Client) pop() pending {
	slot := &cl.pend[cl.tail&(len(cl.pend)-1)]
	p := *slot
	*slot = pending{}
	cl.tail++
	return p
}

// complete delivers one request's outcome to its sink: the decoded
// response, or (r.err) the transport error that took its place.
func (cl *Client) complete(p pending, r *reply) {
	if p.pipe != nil {
		p.pipe.complete(p, r)
	} else {
		*p.out = *r
	}
}

// flush pushes all queued requests to the wire.
func (cl *Client) flush() error {
	cl.armWrite()
	if err := cl.bw.Flush(); err != nil {
		cl.abort(err)
		return err
	}
	cl.flushed = cl.head
	return nil
}

// recvOne completes the oldest pending request: it flushes first if that
// request's frame has not reached the wire, reads the response frame the
// request's opcode calls for, and hands it to the request's sink. On a
// transport or framing failure the stream is unrecoverable — no later
// response could be matched — so every pending request completes with the
// error before it is returned.
func (cl *Client) recvOne() error {
	if cl.broken != nil {
		return cl.broken
	}
	if cl.tail == cl.head {
		return errors.New("server: receive with no request pending")
	}
	if cl.tail >= cl.flushed {
		if err := cl.flush(); err != nil {
			return err
		}
	}
	var r reply
	if err := cl.readReply(cl.pend[cl.tail&(len(cl.pend)-1)].op, &r); err != nil {
		cl.abort(err)
		return err
	}
	cl.complete(cl.pop(), &r)
	return nil
}

// recvThrough receives until the record accepted as number seq completed.
func (cl *Client) recvThrough(seq int) error {
	for cl.tail <= seq {
		if err := cl.recvOne(); err != nil {
			return err
		}
	}
	return nil
}

// peek arms the read deadline and returns the next n response bytes
// without consuming them. Decoding from the reader's own buffer keeps the
// steady-state receive path free of allocations.
func (cl *Client) peek(n int) ([]byte, error) {
	cl.armRead()
	return cl.br.Peek(n)
}

// maxScanRespEnts bounds the entry count a scan reply may announce before
// the client rejects the frame as garbage. Generous: a legitimate reply
// overshoots MaxScanBatch only by the final bin group.
const maxScanRespEnts = 1 << 22

// readReply reads the one response frame that answers a request with
// opcode op.
func (cl *Client) readReply(op OpCode, r *reply) error {
	switch {
	case isKVOp(op):
		hdr, err := cl.peek(KVRespHdrSize)
		if err != nil {
			return err
		}
		r.Status = Status(hdr[0])
		vlen := int(binary.LittleEndian.Uint32(hdr[1:5]))
		if vlen > MaxKVValue {
			return fmt.Errorf("%w: value length %d exceeds %d", ErrBadFrame, vlen, MaxKVValue)
		}
		cl.br.Discard(KVRespHdrSize)
		if vlen > 0 {
			r.value = make([]byte, vlen)
			cl.armRead()
			_, err = io.ReadFull(cl.br, r.value)
		}
		return err

	case op == OpGetVer:
		b, err := cl.peek(GetVerRespSize)
		if err != nil {
			return err
		}
		r.Response, _ = DecodeResponse(b)
		r.ver = binary.LittleEndian.Uint64(b[9:17])
		cl.br.Discard(GetVerRespSize)
		return nil

	case op == OpScan:
		hdr, err := cl.peek(ScanRespHdrSize)
		if err != nil {
			return err
		}
		r.Status = Status(hdr[0])
		r.cur.Bins = binary.LittleEndian.Uint64(hdr[1:9])
		r.cur.Next = binary.LittleEndian.Uint64(hdr[9:17])
		r.done = hdr[17] != 0
		count := int(binary.LittleEndian.Uint32(hdr[18:22]))
		if count > maxScanRespEnts {
			return fmt.Errorf("%w: scan reply declares %d entries", ErrBadFrame, count)
		}
		cl.br.Discard(ScanRespHdrSize)
		if count > 0 {
			r.ents = make([]core.Entry, count)
			cl.armRead()
			for i := range r.ents {
				b, err := cl.br.Peek(16)
				if err != nil {
					return err
				}
				r.ents[i].Key = binary.LittleEndian.Uint64(b)
				r.ents[i].Value = binary.LittleEndian.Uint64(b[8:])
				cl.br.Discard(16)
			}
		}
		return nil
	}
	b, err := cl.peek(RespSize)
	if err != nil {
		return err
	}
	r.Response, _ = DecodeResponse(b)
	cl.br.Discard(RespSize)
	return nil
}

// roundTrip is the one synchronous exchange: accept the request, then
// receive — completing whatever is pending ahead of it, in order — until
// its own reply is in. A transport failure reaches the request the way it
// reaches every other pending one, through its completion.
func (cl *Client) roundTrip(p pending, frame []byte) error {
	if err := cl.enqueue(p, frame); err != nil {
		return err
	}
	cl.recvThrough(cl.head - 1)
	return p.out.err
}

// retry runs roundTrip and, with a retry policy set and nothing else in
// flight, reissues the request after each retryable failure — redialing
// first — within the policy's budget and backoff. Retried writes are
// at-least-once: the first attempt may have applied with its ack lost.
func (cl *Client) retry(p pending, frame []byte) error {
	solo := cl.head == cl.tail
	err := cl.roundTrip(p, frame)
	for attempt := 0; solo && attempt < cl.policy.Max && IsRetryable(err); attempt++ {
		time.Sleep(cl.policy.Backoff(attempt, &cl.rng))
		err = cl.roundTrip(p, frame)
	}
	return err
}

// fixed runs one fixed-frame op synchronously and reports it the way a
// Pipe would have: statuses other than OK and NOT_FOUND surface as their
// sentinel errors (ErrBusy, core.ErrWrongMode, ...), so error handling
// matches the local Store surface.
func (cl *Client) fixed(op OpCode, key, val uint64) core.Completion {
	var out reply
	frame := AppendRequest(cl.frame[:0], Request{Op: op, Key: key, Value: val})
	if err := cl.retry(pending{op: op, key: key, out: &out}, frame); err != nil {
		return core.Completion{Err: err}
	}
	return completionOf(op, key, out.Response)
}

// Get reads key; ok reports whether it was present.
func (cl *Client) Get(key uint64) (val uint64, ok bool, err error) {
	c := cl.fixed(OpGet, key, 0)
	return c.Value, c.OK, c.Err
}

// Put overwrites an existing key and returns its previous value; ok is
// false when the key was absent.
func (cl *Client) Put(key, val uint64) (prev uint64, ok bool, err error) {
	c := cl.fixed(OpPut, key, val)
	return c.Value, c.OK, c.Err
}

// Insert adds a new key. A StatusExists reply surfaces as (existing, false,
// nil); other failures map to their sentinel errors.
func (cl *Client) Insert(key, val uint64) (existing uint64, inserted bool, err error) {
	c := cl.fixed(OpInsert, key, val)
	switch {
	case errors.Is(c.Err, core.ErrExists):
		return c.Value, false, nil
	case c.Err != nil:
		return 0, false, fmt.Errorf("server: insert: %w", c.Err)
	}
	return 0, c.OK, nil
}

// Delete removes key and returns its previous value; ok is false when the
// key was absent.
func (cl *Client) Delete(key uint64) (prev uint64, ok bool, err error) {
	c := cl.fixed(OpDelete, key, 0)
	return c.Value, c.OK, c.Err
}

// kv runs one variable-length KV op synchronously. Requires FeatureKV.
func (cl *Client) kv(op OpCode, ns uint16, key, val []byte) (value []byte, ok bool, err error) {
	frame, err := AppendKVRequest(nil, KVRequest{Op: op, NS: ns, Key: key, Value: val})
	if err != nil {
		return nil, false, err
	}
	var out reply
	if err := cl.retry(pending{op: op, out: &out}, frame); err != nil {
		return nil, false, err
	}
	return out.value, out.Status == StatusOK, out.Status.Err()
}

// GetKV reads the byte key under namespace ns; ok reports whether it was
// present. The returned slice is freshly allocated and owned by the caller.
func (cl *Client) GetKV(ns uint16, key []byte) (val []byte, ok bool, err error) {
	return cl.kv(OpGetKV, ns, key, nil)
}

// InsertKV adds a byte key/value pair under namespace ns; failures map to
// the same sentinels the local KV surface returns (core.ErrExists,
// core.ErrValueSize, ...).
func (cl *Client) InsertKV(ns uint16, key, val []byte) error {
	_, _, err := cl.kv(OpInsertKV, ns, key, val)
	return err
}

// DeleteKV removes the byte key under namespace ns; ok reports whether it
// was present.
func (cl *Client) DeleteKV(ns uint16, key []byte) (ok bool, err error) {
	_, ok, err = cl.kv(OpDeleteKV, ns, key, nil)
	return ok, err
}

// GetVer reads key together with its applied-mutation version (the
// core.VersionReader surface) over an OpGetVer frame. Requires a
// connection granted FeatureReshard. Retried like the other synchronous
// helpers (the read is idempotent).
func (cl *Client) GetVer(key uint64) (val uint64, ok bool, ver uint64, err error) {
	var out reply
	frame := binary.LittleEndian.AppendUint64(append(cl.frame[:0], byte(OpGetVer)), key)
	if err := cl.retry(pending{op: OpGetVer, key: key, out: &out}, frame); err != nil {
		return 0, false, 0, err
	}
	switch out.Status {
	case StatusOK:
		return out.Result, true, out.ver, nil
	case StatusNotFound:
		// The version is meaningful on a miss too: a tombstone has one.
		return 0, false, out.ver, nil
	}
	return 0, false, 0, out.Status.Err()
}

// ScanStep advances the server-side migration cursor one batch (the
// core.Scanner surface) over an OpScan frame. Same connection
// requirements as GetVer. Not retried: the cursor's consumer (the reshard
// coordinator) handles failover by restarting the pass, so a transport
// error surfaces immediately.
func (cl *Client) ScanStep(cur core.Cursor, maxEnts int) ([]core.Entry, core.Cursor, bool, error) {
	if maxEnts <= 0 || maxEnts > MaxScanBatch {
		maxEnts = MaxScanBatch
	}
	frame := append(cl.frame[:0], byte(OpScan))
	frame = binary.LittleEndian.AppendUint64(frame, cur.Bins)
	frame = binary.LittleEndian.AppendUint64(frame, cur.Next)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(maxEnts))
	var out reply
	if err := cl.roundTrip(pending{op: OpScan, out: &out}, frame); err != nil {
		return nil, core.Cursor{}, false, err
	}
	if out.Status != StatusOK {
		return nil, core.Cursor{}, false, out.Status.Err()
	}
	return out.ents, out.cur, out.done, nil
}
