// Package exec is a shared sharded executor for fixed-frame ops: N shards
// — each a goroutine owning one core.Handle and a long-lived
// Handle.Pipeline — fed by multi-producer rings that aggregate the batches
// of many producers, so batching depth comes from producer count rather
// than from how deeply any one producer pipelines (the MICA-style
// partitioned-queue idea, see internal/baselines/mica).
//
// The server does not use it: every binary connection runs on a handle of
// its own, which measured faster than the executor in the regimes the
// executor was built for, many one-deep connections included. Its last
// caller is the benchmark's exec.session rung (benchmark/ladder.go), which
// prices the hop; the rung goes behind the ladder seam of ROADMAP item 1
// and this package goes with it.
//
// Each Session (producer) is bound to one shard at creation, least-loaded
// first. Every op of a session executes on one shard in submission order,
// so per-session program order holds; the shards' handles operate
// concurrently on the whole table (CREW).
//
// Completions carry a (session, seq) tag. Because a shard's pipeline
// completes in enqueue order, tags ride a plain FIFO alongside the
// pipeline; each completion is posted into its Session's seq-indexed
// reorder ring, and the session's consumer takes completions strictly in
// submission order. Lock traffic is batched at both ends: SubmitBatch
// moves a whole burst into a shard ring under one lock, and shards deliver
// completions to sessions in contiguous per-session runs. The hash of an
// op is computed at submission, on the producer's goroutine, and handed to
// the shard's pipeline via Pipeline.EnqueueHashed.
package exec

import (
	"errors"
	"runtime"
	"sync"

	core "repro/internal/core"
)

//dlht:hotpath

// ErrClosed is reported for sessions and submissions on a closed Executor.
var ErrClosed = errors.New("exec: executor closed")

// Options tunes an Executor. The zero value is usable.
type Options struct {
	// Shards is the number of executor shards (goroutine + Handle +
	// pipeline each). 0 selects GOMAXPROCS. Clamped to the table handles
	// actually available and to 1 on single-thread tables.
	Shards int

	// The bounds below are fixed in production (zero selects the named
	// default); only the in-package tests shrink them to force blocking.
	//
	// window is each shard pipeline's completion window; 0 inherits the
	// table's prefetch window. ring is the per-shard request ring capacity
	// and sessionWindow each session's in-flight bound (the reorder ring
	// capacity); both round up to a power of two, and submissions block
	// at either.
	window, ring, sessionWindow int
}

// The per-session bounds of an executor (see Options).
const (
	defaultRing          = 1024
	defaultSessionWindow = 4096
)

// Executor is a shared execution service over one table. Create with New,
// register one Session per producer, and Close to drain: Close returns
// only after every shard has flushed its pipeline and exited, so no
// completion fires afterwards.
type Executor struct {
	tbl    *core.Table
	shards []*shard
	sessW  int

	mu     sync.Mutex // guards closed and session placement
	closed bool
	wg     sync.WaitGroup
}

// New builds an executor over tbl, acquiring one table handle per shard.
// It fails only when the table has no handles left at all; with fewer
// handles than requested shards it runs narrower.
func New(tbl *core.Table, opts Options) (*Executor, error) {
	n := opts.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if tbl.SingleThread() {
		n = 1
	}
	ring := ceilPow2(opts.ring, defaultRing)
	e := &Executor{tbl: tbl, sessW: ceilPow2(opts.sessionWindow, defaultSessionWindow)}
	handles := make([]*core.Handle, 0, n)
	for i := 0; i < n; i++ {
		h, err := tbl.Handle()
		if err != nil {
			if i == 0 {
				return nil, err
			}
			break
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		e.shards = append(e.shards, newShard(e, h, opts.window, ring))
	}
	e.wg.Add(len(e.shards))
	for _, sh := range e.shards {
		go sh.run()
	}
	return e, nil
}

// ceilPow2 rounds v (or def when v<=0) up to a power of two.
func ceilPow2(v, def int) int {
	if v <= 0 {
		v = def
	}
	c := 1
	for c < v {
		c <<= 1
	}
	return c
}

// Close stops the shards and joins them. Every request already accepted by
// a shard ring is executed and its completion delivered first; submissions
// racing Close fail their ops with ErrClosed (still delivered in order).
// After Close returns no completion callback is running or will run.
func (e *Executor) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	e.mu.Unlock()
	for _, sh := range e.shards {
		sh.close()
	}
	e.wg.Wait()
}

// NewSession registers a request producer, bound to the shard with the
// fewest live sessions.
func (e *Executor) NewSession() (*Session, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	s := &Session{e: e}
	s.cond.L = &s.mu
	s.prod.L = &s.mu
	s.ring = make([]doneSlot, 64)
	s.shard = e.shards[0]
	for _, sh := range e.shards[1:] {
		if sh.sessions < s.shard.sessions {
			s.shard = sh
		}
	}
	s.shard.sessions++
	return s, nil
}

// detachSession undoes the session's placement accounting.
func (e *Executor) detachSession(s *Session) {
	e.mu.Lock()
	s.shard.sessions--
	e.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

// item is one routed request in a shard ring: the op plus its session/seq
// completion tag and the memoized key hash. Items are pure values — the
// multi-producer enqueue path allocates nothing.
type item struct {
	sess *Session
	seq  uint64
	hash uint64
	op   core.Op
}

// tag is one in-flight pipeline entry's completion address.
type tag struct {
	sess *Session
	seq  uint64
}

// shard is one executor lane: a goroutine owning a table handle and its
// long-lived pipeline, consuming a multi-producer ring.
type shard struct {
	e *Executor
	h *core.Handle

	mu         sync.Mutex
	notEmpty   sync.Cond
	notFull    sync.Cond
	ring       []item
	mask       uint64
	head, tail uint64 // absolute produce/consume cursors
	closed     bool
	sessions   int // placement count (under e.mu)

	// Consumer-side state, touched only by the shard goroutine.
	pl      *core.Pipeline
	scratch []item
	tags    tagRing     // pipeline completion tags, FIFO
	pending []doneEntry // completions staged between deliveries
	// dlht:ok:fieldalignment — dirty could pack beside closed (saving a
	// word) but closed is producer-side state and dirty is written by the
	// shard goroutine every loop; sharing their word invites false sharing.
	dirty bool // executed something since the last idle flush
}

// doneEntry is one staged completion awaiting delivery to its session.
// Staging lets the shard post a whole batch's completions with one
// session lock per contiguous same-session run instead of one per op.
type doneEntry struct {
	sess *Session
	seq  uint64
	op   core.Op
}

func newShard(e *Executor, h *core.Handle, window, ring int) *shard {
	sh := &shard{e: e, h: h}
	sh.notEmpty.L = &sh.mu
	sh.notFull.L = &sh.mu
	sh.ring = make([]item, ring)
	sh.mask = uint64(ring - 1)
	sh.scratch = make([]item, ring)
	sh.pl = h.Pipeline(core.PipelineOpts{Window: window, OnComplete: sh.complete})
	sh.tags.init(sh.pl.Window() + 2)
	return sh
}

// enqueueBatch admits a run of items under one ring lock, waiting out full
// windows in chunks. It returns how many items were accepted; fewer than
// len(items) means the executor closed mid-batch and the caller completes
// the rest with ErrClosed.
func (sh *shard) enqueueBatch(items []item) int {
	done := 0
	sh.mu.Lock()
	for done < len(items) {
		for sh.head-sh.tail == uint64(len(sh.ring)) && !sh.closed {
			sh.notFull.Wait()
		}
		if sh.closed {
			break
		}
		n := len(sh.ring) - int(sh.head-sh.tail)
		if rest := len(items) - done; n > rest {
			n = rest
		}
		wasEmpty := sh.head == sh.tail
		for i := 0; i < n; i++ {
			sh.ring[(sh.head+uint64(i))&sh.mask] = items[done+i]
		}
		sh.head += uint64(n)
		done += n
		if wasEmpty {
			sh.notEmpty.Signal()
		}
	}
	sh.mu.Unlock()
	return done
}

// close marks the shard closed and wakes the consumer and any blocked
// producers. The consumer drains what the ring already holds, flushes its
// pipeline and exits.
func (sh *shard) close() {
	sh.mu.Lock()
	sh.closed = true
	sh.notEmpty.Signal()
	sh.notFull.Broadcast()
	sh.mu.Unlock()
}

// run is the shard goroutine: drain the ring in batches, execute, and —
// when the ring empties — flush the pipeline so tails complete while the
// shard would otherwise sleep. Between back-to-back batches the pipeline
// stays primed, so cross-session traffic keeps the prefetch window full.
func (sh *shard) run() {
	defer sh.e.wg.Done()
	for {
		sh.mu.Lock()
		for sh.head == sh.tail && !sh.closed {
			if sh.dirty {
				// About to idle with work in flight: complete it first.
				// flushIdle runs unlocked so completions (which take
				// session locks) never nest inside the ring lock.
				sh.mu.Unlock()
				sh.flushIdle()
				sh.mu.Lock()
				continue
			}
			sh.notEmpty.Wait()
		}
		if sh.head == sh.tail { // closed and drained
			sh.mu.Unlock()
			break
		}
		n := sh.head - sh.tail
		if n > uint64(len(sh.scratch)) {
			n = uint64(len(sh.scratch))
		}
		wasFull := sh.head-sh.tail == uint64(len(sh.ring))
		for i := uint64(0); i < n; i++ {
			j := (sh.tail + i) & sh.mask
			sh.scratch[i] = sh.ring[j]
			sh.ring[j] = item{} // drop the session reference
		}
		sh.tail += n
		if wasFull {
			sh.notFull.Broadcast()
		}
		sh.mu.Unlock()
		for i := range sh.scratch[:n] {
			it := &sh.scratch[i]
			sh.tags.push(tag{sess: it.sess, seq: it.seq})
			sh.pl.EnqueueHashed(it.op, it.hash)
			*it = item{}
		}
		sh.deliver()
		sh.dirty = true
	}
	sh.flushIdle()
	sh.pl.Close()
	sh.h.Close()
}

// flushIdle completes everything in flight and delivers it.
func (sh *shard) flushIdle() {
	if sh.pl.InFlight() > 0 {
		sh.pl.Flush()
	}
	sh.deliver()
	sh.dirty = false
}

// deliver posts the staged completions to their sessions, one lock per
// contiguous same-session run.
func (sh *shard) deliver() {
	pend := sh.pending
	for i := 0; i < len(pend); {
		j := i + 1
		for j < len(pend) && pend[j].sess == pend[i].sess {
			j++
		}
		pend[i].sess.completeRun(pend[i:j])
		i = j
	}
	for i := range pend {
		pend[i] = doneEntry{} // drop the session reference
	}
	sh.pending = pend[:0]
}

// complete is the pipeline's completion callback: pop the oldest tag
// (completions fire in enqueue order) and stage the result for the next
// delivery.
func (sh *shard) complete(op *core.Op) {
	t := sh.tags.pop()
	sh.pending = append(sh.pending, doneEntry{sess: t.sess, seq: t.seq, op: *op})
}

// tagRing is a single-goroutine FIFO of completion tags, sized to the
// pipeline it shadows (in-flight entries never exceed window+1).
type tagRing struct {
	buf        []tag
	mask       int
	head, tail int
}

func (r *tagRing) init(capacity int) {
	c := ceilPow2(capacity, 8)
	r.buf = make([]tag, c)
	r.mask = c - 1
}

func (r *tagRing) push(t tag) {
	if r.head-r.tail == len(r.buf) {
		// Cannot happen while the ring shadows a bounded pipeline; grow
		// anyway rather than corrupt the FIFO.
		next := make([]tag, len(r.buf)*2)
		for i := r.tail; i < r.head; i++ {
			next[i&(len(next)-1)] = r.buf[i&r.mask]
		}
		r.buf = next
		r.mask = len(next) - 1
	}
	r.buf[r.head&r.mask] = t
	r.head++
}

func (r *tagRing) pop() tag {
	if debugAsserts {
		r.assertTagAvailable()
	}
	t := r.buf[r.tail&r.mask]
	r.buf[r.tail&r.mask] = tag{}
	r.tail++
	return t
}
