package core

import (
	"bytes"
	"sync/atomic"
	"unsafe"

	"repro/internal/cpuops"
)

//dlht:hotpath
// Allocator-mode pipelining: the two-level prefetch engine behind
// GetKVBatch and the streaming KVPipeline, a ring (pipeline.go) whose
// entries hold each lookup's KVGet and its lookup state. "Unlike MICA, our
// pointer-based API also allows us to prefetch the externally stored
// values in Allocator mode" (§3.3). A lookup touches memory three times,
// each after the prefetch that covers it has had half a window or more to
// land:
//
//  1. issue, a full window ahead of completion: hash the key, prefetch its
//     bin.
//  2. locate, half a window ahead: scan the (cached) bin and pick the slot
//     from the slot words alone — key word, size code, namespace. For a key
//     of at most 8 bytes that is the answer. For a bigger key it is a
//     candidate: its first 8 bytes match; the rest lives in the block,
//     which this stage does not read. It records the bin header the pick
//     was validated against and prefetches every line of the block the
//     next stage reads: header, big key and the value's first 64 bytes
//     (lookupSpan). A block with a 16-byte key and a 64-byte value spans
//     two or three lines.
//  3. complete: the one visit to the block, every line of it cached —
//     one pairBlock read yields the stored key, the value view, which the
//     caller then copies out, and the metadata word — then compare the full
//     key and re-validate the recorded bin header. A mismatch (another key
//     sharing the 8-byte prefix), a header that moved on (the slot may have
//     been deleted and its block reused since stage 2) or block lengths
//     that fail pairBlock's bounds check fall back to the synchronous
//     lookup. It is scanBinKV's optimistic protocol with the window
//     stretched from one scan to half a pipeline window.
//
// Request order is preserved.

// kvPipeEntry is one in-flight request of the KV engine: the request, the
// hash coordinates memoized at issue time (kw, code, bin, and the index
// they were computed against) plus what the locate stage found: the picked
// slot's value word and the bin header (address, validated value) it was
// picked under.
type kvPipeEntry struct {
	req  KVGet
	ix   *index
	at   *uint64
	hdr  uint64
	bin  uint64
	kw   uint64
	vw   uint64
	code int
	ok   bool
}

// kvPipe is the sliding-window engine shared by GetKVBatch and
// KVPipeline. Three absolute cursors chase each other through the ring:
// head (issue = hash + bin prefetch), s2 (locate = slot pick + block
// prefetch) and tail (completion = verify + value view).
type kvPipe struct {
	ring[kvPipeEntry]
	s2 int
}

// reset empties the engine and sizes it for a window of w lookups.
func (p *kvPipe) reset(w int) {
	p.ring.reset(w)
	p.s2 = 0
}

// issue is stage 1: admit a lookup of key in namespace ns, whose hash —
// Table.HashOfKV — the caller computed, memoize its coordinates against ix,
// and prefetch the bin header.
func (p *kvPipe) issue(ix *index, ns uint16, key []byte, hash uint64) {
	if p.head-p.tail == len(p.ents) {
		p.grow()
	}
	e := &p.ents[p.head&p.mask]
	p.head++
	e.req.NS, e.req.Key = ns, key // kvStep writes the outputs
	e.ix = ix
	e.kw = inlineKeyWord(key)
	e.code = keyCodeFor(key)
	e.bin = ix.binOf(hash)
	cpuops.PrefetchUint64(ix.headerAddr(e.bin))
}

// locate is stage 2: pick the slot from the (now cached) bin's slot words
// and prefetch every line of its out-of-line block that completion reads.
func (t *Table) locate(e *kvPipeEntry) {
	e.vw, e.at, e.hdr, e.ok = t.lookupKVSlotAt(e.ix, e.req.NS, e.req.Key, e.kw, e.code, e.bin, false)
	if e.ok {
		blk := t.cfg.Alloc.Bytes(refOf(e.vw), 1)
		cpuops.PrefetchRange(unsafe.Pointer(&blk[0]), t.lookupSpan(len(e.req.Key)))
	}
}

// valuePrefetch is how many of a value's bytes a lookup prefetches: one
// cache line's worth, what a reader copying the value out starts with.
const valuePrefetch = 64

// lookupSpan returns how many bytes from its block's first byte a lookup
// reads of a pair whose key has klen bytes: the header, when the block has
// one; a big key; and the value's first valuePrefetch bytes, or all of a
// shorter fixed-size value — blockGeometry's size for that value. It comes
// from the table's config and the lookup key alone, not from the block,
// whose header is not cached yet: a variable-size value is taken to be
// valuePrefetch bytes or longer, and a candidate whose stored key is
// shorter than the lookup key as the lookup key's length. Either way the
// span may run past the block, which cpuops.PrefetchRange tolerates: it
// forms no Go pointer there.
func (t *Table) lookupSpan(klen int) uintptr {
	v := valuePrefetch
	if !t.cfg.VariableKV {
		v = min(v, t.cfg.ValueSize)
	}
	span, _ := t.blockGeometry(klen, v)
	return uintptr(span)
}

// advance runs the lookup stage toward its steady-state position: trailing
// the bin prefetch by half a window and leading completion by the other
// half, splitting the in-flight budget between the two prefetch levels.
func (p *kvPipe) advance(t *Table, w, lead int) {
	for p.s2 < p.head && (p.head-p.s2 > w-lead || p.s2 < p.tail+lead) {
		t.locate(&p.ents[p.s2&p.mask])
		p.s2++
	}
}

// kvStep completes the oldest in-flight request in place, stage 3: read
// the candidate's (now cached) block, verify a big key against it and the
// bin header it was picked under, then write the value view and metadata
// word into the entry's KVGet and return it. The request stays in flight:
// the caller advances tail once it is done with it.
func (h *Handle) kvStep(p *kvPipe) *KVGet {
	t := h.t
	if p.s2 == p.tail {
		t.locate(&p.ents[p.tail&p.mask])
		p.s2++
	}
	e := &p.ents[p.tail&p.mask]
	req := &e.req
	var val []byte
	var meta uint64
	if e.ok {
		key, v, m, sane := t.pairBlock(e.vw)
		if !sane || e.code == bigKeyCode && !(bytes.Equal(key, req.Key) && atomic.LoadUint64(e.at) == e.hdr) {
			if e.vw, _, _, e.ok = t.lookupKVSlotAt(e.ix, req.NS, req.Key, e.kw, e.code, e.bin, true); e.ok {
				_, v, m, _ = t.pairBlock(e.vw)
			}
		}
		if e.ok {
			if debugAsserts {
				h.assertViewPinned()
			}
			val, meta = v, m
		}
	}
	req.Value, req.Meta, req.OK = val, meta, e.ok
	e.ix, e.at = nil, nil // a completed lookup must not pin a drained index
	return req
}

// kvLead splits window w between the two prefetch stages.
func kvLead(w int) int { return (w + 1) / 2 }

// ---------------------------------------------------------------------------
// Public streaming surface
// ---------------------------------------------------------------------------

// KVPipelineOpts configures a KVPipeline.
type KVPipelineOpts struct {
	// Window bounds how many lookups are in flight between enqueue and
	// completion. 0 selects the table's Config.PrefetchWindow; other
	// values are clamped to at least 1.
	Window int
	// OnComplete is invoked for every lookup, in enqueue order, as it
	// completes. The *KVGet's Value view follows the same lifetime rules as
	// GetKV; the pointer itself stays valid for the whole call, whatever
	// the call enqueues, and not after it. OnComplete may enqueue any
	// number of further lookups into the same pipeline; calling Flush or
	// Close from inside it is a no-op.
	OnComplete func(*KVGet)
}

// KVPipeline is the Allocator-mode streaming form of GetKVBatch: lookups
// enter one at a time through Get, each issuing its bin prefetch
// immediately, and complete — firing OnComplete with the value view and
// metadata word — once a full window of newer lookups is behind them, with
// the slot pick and out-of-line block prefetch running at half-window
// distance in between. Completions
// preserve enqueue order. Like Pipeline, it borrows its Handle and
// inherits its single-goroutine contract.
type KVPipeline struct {
	h          *Handle
	p          kvPipe
	w          int
	lead       int
	onComplete func(*KVGet)
	draining   bool
	closed     bool
}

// KVPipeline creates a streaming lookup pipeline over h. The table must be
// in Allocator mode.
func (h *Handle) KVPipeline(opts KVPipelineOpts) *KVPipeline {
	if h.t.cfg.Mode != Allocator {
		panic(ErrWrongMode)
	}
	w := h.t.window(opts.Window)
	pl := &KVPipeline{h: h, w: w, lead: kvLead(w), onComplete: opts.OnComplete}
	pl.p.reset(w)
	return pl
}

// Window returns the pipeline's resolved completion window.
func (pl *KVPipeline) Window() int { return pl.w }

// InFlight returns the number of enqueued lookups not yet completed. A
// lookup counts as in flight until its OnComplete call returns.
func (pl *KVPipeline) InFlight() int { return pl.p.head - pl.p.tail }

// Get enqueues a lookup of key in namespace ns. The key bytes must stay
// valid until the lookup completes.
func (pl *KVPipeline) Get(ns uint16, key []byte) {
	pl.GetHashed(ns, key, pl.h.t.HashOfKV(ns, key))
}

// GetHashed is Get with the key's hash — as returned by Table.HashOfKV —
// precomputed by the caller, so routers that already hashed the key for
// shard selection don't hash it a second time for the bin mapping. A
// resize redirect still recomputes the bin from the key.
func (pl *KVPipeline) GetHashed(ns uint16, key []byte, hash uint64) {
	if pl.closed {
		panic("dlht: KVPipeline used after Close")
	}
	pl.p.issue(pl.h.t.current.Load(), ns, key, hash)
	if !pl.draining {
		pl.drainTo(pl.w)
	}
}

// drainTo completes in-flight lookups, oldest first, until at most limit
// remain, keeping the lookup stage at its lead in between. As in
// Pipeline.drainTo, a lookup stays in flight until its callback returns.
func (pl *KVPipeline) drainTo(limit int) {
	if pl.draining {
		return
	}
	h := pl.h
	t := h.t
	pl.draining = true
	p := &pl.p
	for p.head-p.tail > limit || p.head-p.s2 > pl.w-pl.lead {
		h.pin() // EpochGC: the run's block views outlive frees; a no-op once pinned
		p.advance(t, pl.w, pl.lead)
		if p.head-p.tail <= limit {
			break
		}
		req := h.kvStep(p)
		if pl.onComplete != nil {
			pl.onComplete(req)
		}
		p.tail++
	}
	pl.draining = false
}

// Flush completes every in-flight lookup, firing OnComplete for each.
func (pl *KVPipeline) Flush() { pl.drainTo(0) }

// Put upserts — an existing pair is replaced, an absent key inserted, the
// metadata word zero (see Handle.UpsertKVHashed) — behind a barrier: the in-flight lookups are
// flushed first, so the mutation is ordered after every enqueued read. Must
// not be called from inside OnComplete.
func (pl *KVPipeline) Put(ns uint16, key, val []byte) error {
	if pl.closed {
		panic("dlht: KVPipeline used after Close")
	}
	pl.drainTo(0)
	return pl.h.UpsertKVHashed(ns, key, val, pl.h.t.HashOfKV(ns, key), 0)
}

// Close flushes the pipeline and rejects further enqueues. The Handle
// remains usable. Calling Close from inside OnComplete is a no-op, like
// Flush: the pipeline stays open and keeps completing.
func (pl *KVPipeline) Close() {
	if pl.closed || pl.draining {
		return
	}
	pl.Flush()
	pl.closed = true
}
