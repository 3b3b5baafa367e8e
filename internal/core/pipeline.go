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
// The sliding-window machinery lives in the pipe engine below, and every
// op it completes runs through execOneAt: the op gate, then the op's *At
// body. Exec drives the same ring and the same dispatch with its own
// batch-at-once loop.

// pipeEntry is one in-flight request of the engine: the op pointer plus the
// bin memoized while its prefetch was issued and the index the bin belongs
// to. A resize redirect invalidates the memoized bin at execution time and
// the op recomputes it against the successor index (the *At op variants).
type pipeEntry struct {
	op  *Op
	ix  *index
	bin uint64
}

// pipe is the sliding-window engine shared by Handle.Exec and Pipeline. It
// is a power-of-two ring of in-flight entries addressed by absolute
// head/tail counters; in-flight = head-tail. The ring grows on demand (a
// completion callback may enqueue), so the window bound is enforced by the
// callers' drain policy, not by ring capacity.
type pipe struct {
	ring []pipeEntry
	mask int
	head int // next issue position (absolute)
	tail int // next completion position (absolute)
}

// sizePipe (re)initializes the ring for a window of w in-flight entries.
func (p *pipe) sizePipe(w int) {
	p.head, p.tail = 0, 0
	if len(p.ring) > w {
		return
	}
	c := 8
	for c <= w { // capacity strictly above w: the issue for op i+w precedes op i's execution
		c <<= 1
	}
	p.ring = make([]pipeEntry, c)
	p.mask = c - 1
}

// grow doubles the ring, preserving in-flight entries at their absolute
// positions.
func (p *pipe) grow() {
	old := p.ring
	oldMask := p.mask
	next := make([]pipeEntry, len(old)*2)
	p.mask = len(next) - 1
	for i := p.tail; i < p.head; i++ {
		next[i&p.mask] = old[i&oldMask]
	}
	p.ring = next
}

// issue admits op into the pipeline: memoize its bin against ix and start
// the bin's cache line toward the core. The op executes later, when it
// reaches the tail of the window.
func (p *pipe) issue(t *Table, ix *index, op *Op) {
	if p.head-p.tail == len(p.ring) {
		p.grow()
	}
	b := t.binFor(ix, op.Key)
	p.ring[p.head&p.mask] = pipeEntry{op: op, ix: ix, bin: b}
	p.head++
	cpuops.PrefetchUint64(ix.headerAddr(b))
}

// step executes the oldest in-flight op against its memoized bin and
// returns it. The entry is copied out before execution so a completion
// callback may grow the ring underneath us.
func (h *Handle) step(p *pipe) *Op {
	e := p.ring[p.tail&p.mask]
	p.tail++
	h.execOneAt(e.ix, e.op, e.bin)
	return e.op
}

// execPipe returns the handle's Exec engine state sized for window w.
func (h *Handle) execPipe(w int) *pipe {
	if h.xp == nil {
		h.xp = new(pipe)
	}
	h.xp.sizePipe(w)
	return h.xp
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
	// completes. The *Op is valid only for the duration of the call; copy
	// what you need. OnComplete may enqueue further requests into the same
	// pipeline (the drain loop picks them up); calling Flush or Close from
	// inside it is a no-op.
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
	p          pipe
	buf        []Op // value slots backing in-flight ops, ring-aligned
	w          int
	onComplete func(*Op)
	draining   bool
	closed     bool
}

// Pipeline creates a streaming pipeline over h. See PipelineOpts.
func (h *Handle) Pipeline(opts PipelineOpts) *Pipeline {
	w := opts.Window
	if w == 0 {
		w = h.t.cfg.PrefetchWindow
	}
	if w < 1 {
		w = 1
	}
	pl := &Pipeline{h: h, w: w, onComplete: opts.OnComplete}
	pl.p.sizePipe(w)
	pl.buf = make([]Op, len(pl.p.ring))
	return pl
}

// Window returns the pipeline's resolved completion window.
func (pl *Pipeline) Window() int { return pl.w }

// InFlight returns the number of enqueued requests not yet completed.
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
	if p.head-p.tail == len(p.ring) {
		pl.growBuf()
	}
	slot := &pl.buf[p.head&p.mask]
	slot.Kind, slot.Key, slot.Value = kind, key, val
	slot.Result, slot.OK, slot.Err = 0, false, nil
	t := pl.h.t
	ix := t.current.Load()
	b := ix.binOf(hash)
	p.ring[p.head&p.mask] = pipeEntry{op: slot, ix: ix, bin: b}
	p.head++
	cpuops.PrefetchUint64(ix.headerAddr(b))
	if p.head-p.tail > pl.w && !pl.draining {
		pl.drainTo(pl.w)
	}
}

// growBuf doubles the engine ring together with its value slots. In-flight
// entries keep pointing into the old slot array (which stays alive through
// those pointers); only new enqueues land in the new one.
func (pl *Pipeline) growBuf() {
	pl.p.grow()
	pl.buf = make([]Op, len(pl.p.ring))
}

// drainTo completes in-flight requests, oldest first, until at most limit
// remain. Completion callbacks may enqueue; the loop re-checks the bound so
// re-entrant traffic drains too. An entry executes against the index it
// was issued on, however many resizes ago that was: its ix reference keeps
// a drained index alive for the GC until the entry completes, and the op
// follows the bin's redirect to the successor.
func (pl *Pipeline) drainTo(limit int) {
	if pl.draining || pl.p.head-pl.p.tail <= limit {
		return
	}
	h := pl.h
	t := h.t
	p := &pl.p
	pl.draining = true
	for p.head-p.tail > limit {
		slot := &p.ring[p.tail&p.mask]
		e := *slot
		*slot = pipeEntry{} // an idle pipeline must not pin a drained index
		p.tail++
		if e.op.Kind == OpGet {
			h.execOneAt(e.ix, e.op, e.bin)
		} else {
			t.beginUpdate()
			h.execOneAt(e.ix, e.op, e.bin)
			t.endUpdate()
		}
		if pl.onComplete != nil {
			pl.onComplete(e.op)
		}
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
