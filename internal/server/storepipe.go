package server

import (
	"errors"

	core "repro/internal/core"
)

// Client as a dlht Store: the sync helpers (Get/Put/Insert/Delete/Close)
// already match the Store surface; Pipe supplies the completion-driven
// pipelined half over the same pending-record path. Together they make a
// remote table indistinguishable, API-wise, from a local Handle.

var _ core.Store = (*Client)(nil)

// clientDefaultWindow is the Pipe window when PipeOpts.Window is 0 — the
// same default distance as the table-side prefetch window, here bounding
// in-flight wire requests instead of in-flight cache lines.
const clientDefaultWindow = 16

// Pipe opens the completion-driven pipelined surface over this client.
// Each enqueue appends a wire frame; once more than the window is in
// flight, the oldest response is received (flushing first if its request
// has not left the write buffer), so the window also bounds the
// kernel-socket-buffer footprint — a Pipe can absorb arbitrarily deep
// enqueue runs without deadlocking on socket buffers. The client's
// synchronous methods stay usable while a Pipe is open: they complete the
// pipe's in-flight requests, in order, on the way to their own answer.
func (cl *Client) Pipe(opts core.PipeOpts) (core.Pipe, error) {
	w := opts.Window
	if w <= 0 {
		w = clientDefaultWindow
	}
	return &clientPipe{cl: cl, w: w, onc: opts.OnComplete}, nil
}

// clientPipe implements core.Pipe: its requests are pending records on the
// client whose sink is this pipe. Completions are delivered in enqueue
// order — the wire protocol's matching rule is the same order-preservation
// contract the local pipeline engine provides.
//
// Failure contract (the client's, seen through the pipe): when the
// connection dies with requests in flight, the transport error is
// delivered to EVERY pending completion (in enqueue order, Err set, OK
// false) before the failing call returns — a completion-counting caller
// can never hang on responses that will never arrive. After a failure the
// pipe is immediately usable again if the client can redial
// (ClientOpts.Retry); otherwise every subsequent enqueue returns the
// sticky transport error.
type clientPipe struct {
	cl     *Client
	w      int
	onc    func(core.Completion)
	out    int // accepted but not yet completed
	closed bool
}

// complete is the client delivering one of this pipe's requests: the
// response, or (r.err) the transport error that took its place.
func (p *clientPipe) complete(rec pending, r *reply) {
	p.out--
	switch {
	case p.onc == nil:
	case r.err != nil:
		p.onc(core.Completion{Kind: kindOf[rec.op], Key: rec.key, Err: r.err})
	default:
		p.onc(completionOf(rec.op, rec.key, r.Response))
	}
}

func (p *clientPipe) enq(op OpCode, key, val uint64) error {
	if p.closed {
		return errors.New("server: Pipe used after Close")
	}
	cl := p.cl
	frame := AppendRequest(cl.frame[:0], Request{Op: op, Key: key, Value: val})
	if err := cl.enqueue(pending{op: op, key: key, pipe: p}, frame); err != nil {
		return err
	}
	p.out++
	// Slide the window: receive the oldest in-flight responses before
	// admitting more. A transport failure here fails every in-flight
	// request — the current one included, since its frame was already
	// accepted — so the enqueue itself reports success: the op's outcome
	// arrives through its (error) completion, exactly once, like every
	// other.
	for p.out > p.w {
		if cl.recvOne() != nil {
			break
		}
	}
	return nil
}

func (p *clientPipe) Get(key uint64) error         { return p.enq(OpGet, key, 0) }
func (p *clientPipe) Put(key, val uint64) error    { return p.enq(OpPut, key, val) }
func (p *clientPipe) Insert(key, val uint64) error { return p.enq(OpInsert, key, val) }
func (p *clientPipe) Delete(key uint64) error      { return p.enq(OpDelete, key, 0) }

// Flush completes every in-flight request, firing OnComplete for each —
// with the transport error as the completion error for all of them if the
// connection dies mid-drain.
func (p *clientPipe) Flush() error {
	for p.out > 0 {
		if err := p.cl.recvOne(); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes the pipe and rejects further enqueues. The Client remains
// usable.
func (p *clientPipe) Close() error {
	if p.closed {
		return nil
	}
	err := p.Flush()
	p.closed = true
	return err
}

// kindOf maps the fixed-frame wire opcodes onto the Store surface's kinds.
var kindOf = [opCodeEnd]core.OpKind{
	OpGet: core.OpGet, OpPut: core.OpPut, OpInsert: core.OpInsert, OpDelete: core.OpDelete,
}

// completionOf maps a fixed-frame response onto the backend-independent
// Completion, with the same OK/Err split the local engine produces: a miss
// (or duplicate-insert NOT inserted) keeps Err nil/sentinel exactly as
// core does — StatusExists becomes core.ErrExists with the existing value,
// StatusNotFound a plain miss, and transport-only statuses their server
// sentinels.
func completionOf(op OpCode, key uint64, r Response) core.Completion {
	c := core.Completion{Kind: kindOf[op], Key: key, Value: r.Result}
	switch r.Status {
	case StatusOK:
		c.OK = true
	case StatusNotFound:
		// miss: OK=false, Err=nil
	default:
		c.Err = r.Status.Err()
	}
	return c
}
