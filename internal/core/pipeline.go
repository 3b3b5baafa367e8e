package core

import (
	"repro/internal/cpuops"
)

//dlht:hotpath
// Completion-driven pipelining: the streaming generalization of the §3.3
// batch API. Where Exec takes a fully materialized []Op, a Pipeline accepts
// requests one at a time: each enqueue issues the request's bin prefetch
// immediately, and once a request falls a full window behind the newest
// enqueue it executes and its completion callback fires. A long-lived
// pipeline therefore keeps the prefetch window primed *across* what used to
// be batch boundaries — the next burst's prefetches overlap the previous
// burst's tail instead of starting from a cold window.
//
// Every window engine in core runs on one ring type, ring[E], and holds
// each in-flight request in its ring entry: a Pipeline entry is the Op
// itself with its memoized bin and index, a KVPipeline entry the KVGet with
// its lookup state (kvpipeline.go). Exec keeps only the memoized bins; its
// ops stay in the caller's slice. Every op a Pipeline or Exec completes runs
// through execOneAt: the op gate, then the op's *At body.

// ring is the power-of-two ring behind every window engine: in-flight
// entries addressed by absolute head/tail counters, in-flight = head-tail.
// A streaming enqueue grows a full ring (a completion callback may
// enqueue), so the window bound is enforced by the callers' drain policy,
// not by ring capacity. Each enqueue writes its admit out (grow if full,
// then the entry at head): a generic push method does not inline, and a
// call per request shows on a cached Get.
type ring[E any] struct {
	ents []E
	mask int
	head int // next issue position (absolute)
	tail int // next completion position (absolute)
}

// reset empties the ring and sizes it for a window of w in-flight entries.
func (r *ring[E]) reset(w int) {
	r.head, r.tail = 0, 0
	if len(r.ents) > w {
		return
	}
	c := 8
	for c <= w { // capacity strictly above w: the issue for op i+w precedes op i's completion
		c <<= 1
	}
	r.ents = make([]E, c)
	r.mask = c - 1
}

// grow doubles the ring, keeping in-flight entries at their absolute
// positions. An entry pointer taken before the grow still reads the entry
// as it was: the old array stays alive through it.
func (r *ring[E]) grow() {
	old, oldMask := r.ents, r.mask
	r.ents = make([]E, len(old)*2)
	r.mask = len(r.ents) - 1
	for i := r.tail; i < r.head; i++ {
		r.ents[i&r.mask] = old[i&oldMask]
	}
}

// pipeEntry is one in-flight request of a Pipeline: the op, the bin
// memoized while its prefetch was issued, and the index the bin belongs to.
// A resize redirect invalidates the memoized bin at execution time and the
// op recomputes it against the successor index (the *At op variants).
type pipeEntry struct {
	op  Op
	ix  *index
	bin uint64
}

// ---------------------------------------------------------------------------
// Public streaming surface
// ---------------------------------------------------------------------------

// PipelineOpts configures a Pipeline.
type PipelineOpts struct {
	// Window bounds how many requests are in flight between enqueue and
	// completion — the streaming equivalent of Config.PrefetchWindow. 0
	// selects the table's Config.PrefetchWindow; other values are clamped
	// to at least 1.
	Window int
	// OnComplete is invoked for every request, in enqueue order, as it
	// completes. The *Op stays valid for the whole call, whatever the call
	// enqueues, and not after it; copy what you need. OnComplete may
	// enqueue any number of further requests into the same pipeline (the
	// drain loop picks them up); calling Flush or Close from inside it is a
	// no-op.
	OnComplete func(*Op)
}

// Pipeline is the completion-driven streaming form of the batch API (§3.3).
// Requests enter one at a time through Get/Put/Insert/InsertShadow/Delete/
// CommitShadow (or a pre-built Op via Enqueue); each enqueue issues the
// request's bin prefetch immediately, and the request executes — firing
// OnComplete — once a full window of newer requests has been enqueued
// behind it. Flush completes everything still in flight; a long-lived
// pipeline that is *not* flushed between bursts keeps the window primed
// across burst boundaries, which is the point of the API.
//
// Completions preserve enqueue order — the property that makes the batch
// API safe for lock managers and network protocols carries over unchanged.
//
// A Pipeline borrows its Handle and inherits its threading contract: one
// goroutine only, and no other use of the Handle while requests are in
// flight (between an enqueue and the Flush/Close that completes it).
type Pipeline struct {
	h          *Handle
	p          ring[pipeEntry]
	w          int
	onComplete func(*Op)
	draining   bool
	closed     bool
}

// Pipeline creates a streaming pipeline over h. See PipelineOpts.
func (h *Handle) Pipeline(opts PipelineOpts) *Pipeline {
	pl := &Pipeline{h: h, w: h.t.window(opts.Window), onComplete: opts.OnComplete}
	pl.p.reset(pl.w)
	return pl
}

// Window returns the pipeline's resolved completion window.
func (pl *Pipeline) Window() int { return pl.w }

// InFlight returns the number of enqueued requests not yet completed. A
// request counts as in flight until its OnComplete call returns.
func (pl *Pipeline) InFlight() int { return pl.p.head - pl.p.tail }

// Enqueue admits a pre-built Op (Kind, Key, Value; result fields are
// ignored) into the pipeline.
func (pl *Pipeline) Enqueue(op Op) { pl.enq(op.Kind, op.Key, op.Value) }

// EnqueueHashed is Enqueue with the key's hash — as returned by
// Table.HashOf — precomputed by the caller. Routers that already hashed
// the key to pick an executor shard hand the hash through so the bin
// mapping does not hash a second time (the same hash-once discipline the
// engine ring applies between prefetch and execution).
func (pl *Pipeline) EnqueueHashed(op Op, hash uint64) {
	pl.enqHashed(op.Kind, op.Key, op.Value, hash)
}

// enq is the shared enqueue hot path: scalar arguments stay in registers
// and the issue stage is written out inline, so a streamed request costs
// what one iteration of Exec's loop costs.
func (pl *Pipeline) enq(kind OpKind, key, val uint64) {
	pl.enqHashed(kind, key, val, pl.h.t.hash64(key))
}

func (pl *Pipeline) enqHashed(kind OpKind, key, val, hash uint64) {
	if pl.closed {
		panic("dlht: Pipeline used after Close")
	}
	p := &pl.p
	ix := pl.h.t.current.Load()
	b := ix.binOf(hash)
	if p.head-p.tail == len(p.ents) {
		p.grow()
	}
	e := &p.ents[p.head&p.mask]
	p.head++
	e.op.Kind, e.op.Key, e.op.Value = kind, key, val
	e.op.Result, e.op.OK, e.op.Err = 0, false, nil
	e.ix, e.bin = ix, b
	cpuops.PrefetchUint64(ix.headerAddr(b))
	if p.head-p.tail > pl.w && !pl.draining {
		pl.drainTo(pl.w)
	}
}

// drainTo completes in-flight requests, oldest first, until at most limit
// remain. An entry executes in place, against the index it was issued on,
// however many resizes ago that was: its ix reference keeps a drained index
// alive for the GC until the entry executes, and the op follows the bin's
// redirect to the successor. The entry stays in flight until its callback
// returns, so whatever the callback enqueues lands behind it, never on the
// Op it was handed; the loop re-checks the bound so that traffic drains too.
func (pl *Pipeline) drainTo(limit int) {
	if pl.draining || pl.p.head-pl.p.tail <= limit {
		return
	}
	h := pl.h
	t := h.t
	p := &pl.p
	pl.draining = true
	for p.head-p.tail > limit {
		e := &p.ents[p.tail&p.mask]
		if e.op.Kind == OpGet {
			h.execOneAt(e.ix, &e.op, e.bin)
		} else {
			t.beginUpdate()
			h.execOneAt(e.ix, &e.op, e.bin)
			t.endUpdate()
		}
		e.ix = nil // an idle pipeline must not pin a drained index
		if pl.onComplete != nil {
			pl.onComplete(&e.op)
		}
		p.tail++
	}
	pl.draining = false
}

// Get enqueues a read of key.
func (pl *Pipeline) Get(key uint64) { pl.enq(OpGet, key, 0) }

// Put enqueues an overwrite of an existing key (Inlined mode only).
func (pl *Pipeline) Put(key, val uint64) { pl.enq(OpPut, key, val) }

// Insert enqueues an insert of a new key.
func (pl *Pipeline) Insert(key, val uint64) { pl.enq(OpInsert, key, val) }

// InsertShadow enqueues a transactional shadow insert (§3.2.2).
func (pl *Pipeline) InsertShadow(key, val uint64) { pl.enq(OpInsertShadow, key, val) }

// Delete enqueues a delete.
func (pl *Pipeline) Delete(key uint64) { pl.enq(OpDelete, key, 0) }

// CommitShadow enqueues the publish (commit=true) or abort (commit=false)
// of a shadow insert.
func (pl *Pipeline) CommitShadow(key uint64, commit bool) {
	v := uint64(0)
	if commit {
		v = 1
	}
	pl.enq(OpCommitShadow, key, v)
}

// Flush completes every in-flight request, firing OnComplete for each.
// Flushing gives up the primed window; call it when a response deadline
// demands the tail, not between back-to-back bursts.
func (pl *Pipeline) Flush() { pl.drainTo(0) }

// Close flushes the pipeline and rejects further enqueues. The Handle
// remains usable. Calling Close from inside OnComplete is a no-op, like
// Flush: the pipeline stays open and keeps completing.
func (pl *Pipeline) Close() {
	if pl.closed || pl.draining {
		return
	}
	pl.Flush()
	pl.closed = true
}
