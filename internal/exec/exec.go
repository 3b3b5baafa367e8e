// Package exec implements the server's shared sharded executor: the piece
// that turns DLHT's memory-aware batching (§3.3) from a per-connection
// property into a per-server one.
//
// The goroutine-per-connection serving model only realizes the paper's
// batching win when a single connection pipelines deeply — each connection
// owns its own Handle, so a fleet of synchronous clients (many users, one
// request in flight each) executes one op at a time with zero prefetch
// overlap. The executor inverts that: N shards — each a goroutine owning
// one core.Handle and a long-lived Handle.Pipeline (plus a KVPipeline for
// Allocator-mode reads) — are fed by multi-producer rings that aggregate
// decoded requests from every connection. Batching depth now comes from
// connection *count*, the MICA-style partitioned-queue idea (see
// internal/baselines/mica), so sixty-four one-op-deep clients fill a
// shard's prefetch window just as well as one sixty-four-deep client.
//
// Each Session (connection) is bound to one shard at creation, least-loaded
// first. Every request of a connection executes on one shard in submission
// order, so per-connection program order is preserved exactly as in the
// goroutine-per-connection model; the shards' handles operate concurrently
// on the whole table (CREW).
//
// Completions carry a (session, seq) tag. Because a shard's pipeline
// completes in enqueue order, tags ride a plain FIFO alongside the
// pipeline; each completion is posted into its Session's seq-indexed
// reorder ring, and the session's consumer (the connection writer) takes
// responses strictly in submission order. Lock traffic is batched at both
// ends: SubmitBatch moves a whole decoded burst into a shard ring under
// one lock, and shards deliver completions to sessions in contiguous
// per-session runs. The hash of a fixed op is computed at submission, on
// the connection's goroutine, and handed to the shard's pipeline via
// Pipeline.EnqueueHashed.
package exec

import (
	"errors"
	"runtime"
	"sync"

	core "repro/internal/core"
	"repro/internal/expiry"
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
	// WAL, when non-nil, makes shards append every effective mutation to
	// the durable table's redo log and stamp the sequence into the op's
	// Done, so consumers can gate acknowledgements on group commits.
	WAL WAL
	// Expiry is an Allocator-mode table's expiry clock and stripe locks,
	// shared with whatever else serves the table (RESP connections, the
	// crawler): variable-length ops run through an expiry.KV bound to it,
	// so a lazy-expiry delete here is atomic against a SET anywhere.
	// Nil gives the executor a private one: sole-owner embedding only.
	Expiry *expiry.Index

	// The bounds below are fixed in production (zero selects the named
	// default); only the in-package tests shrink them to force blocking.
	//
	// window is each shard pipeline's completion window; 0 inherits the
	// table's prefetch window. ring is the per-shard request ring capacity
	// and sessionWindow each session's in-flight bound (the reorder ring
	// capacity); both round up to a power of two, and submissions block
	// at either. sessionKVInflight and sessionKVBytes bound a session's
	// in-flight variable-length ops by count and by payload bytes (request
	// key+value at submission, plus read values as they materialize):
	// fixed ops are 32 bytes each and ride on sessionWindow alone, but KV
	// payloads are owned per in-flight op, so without these one connection
	// pipelining protocol-max values could pin sessionWindow × 16 MiB. A
	// single op larger than the byte budget is admitted when it is the
	// only one in flight.
	window, ring, sessionWindow       int
	sessionKVInflight, sessionKVBytes int
}

// The per-connection bounds of an executor (see Options).
const (
	defaultRing              = 1024
	defaultSessionWindow     = 4096
	defaultSessionKVInflight = 32
	defaultSessionKVBytes    = 8 << 20
)

// WAL is the executor's hook into a durable table's redo log (*wal.Log
// implements it; an interface here keeps exec free of the wal package).
// When set, every effective mutation a shard completes is appended and its
// Done carries the log sequence; the connection writer gates its wire
// flush on SyncWait so no response reaches the socket before the covering
// group commit. Appends from shard goroutines are safe — the log is
// multi-producer.
type WAL interface {
	// LogOp appends the redo record of an effective fixed mutation,
	// returning its sequence; returns 0 for ops that need no record
	// (reads, misses, failed inserts).
	LogOp(op *core.Op) (uint64, error)
	// The Allocator-mode records, appended by the shards' expiry.KV.
	expiry.RedoLog
	// SyncWait blocks until a group commit covers seq (0 is an error
	// check: it returns immediately with the log's sticky failure if any).
	SyncWait(seq uint64) error
}

// kvEpochEvery is how many KV requests a shard serves between epoch
// refreshes on EpochGC tables (power of two).
const kvEpochEvery = 1 << 10

// Executor is a shared execution service over one table. Create with New,
// register one Session per connection, and Close to drain: Close returns
// only after every shard has flushed its pipeline and exited, so no
// completion fires afterwards.
type Executor struct {
	tbl     *core.Table
	wal     WAL
	idx     *expiry.Index
	shards  []*shard
	sessW   int
	kvOps   int // per-session in-flight KV op bound
	kvBytes int // per-session in-flight KV payload bound

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
	sessW := ceilPow2(opts.sessionWindow, defaultSessionWindow)
	kvOps := opts.sessionKVInflight
	if kvOps <= 0 {
		kvOps = defaultSessionKVInflight
	}
	kvBytes := opts.sessionKVBytes
	if kvBytes <= 0 {
		kvBytes = defaultSessionKVBytes
	}
	e := &Executor{tbl: tbl, wal: opts.WAL, idx: opts.Expiry, sessW: sessW, kvOps: kvOps, kvBytes: kvBytes}
	if e.idx == nil && tbl.Mode() == core.Allocator {
		e.idx = expiry.New(nil)
	}
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
	for i, h := range handles {
		e.shards = append(e.shards, newShard(e, i, h, opts.window, ring))
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

// NumShards returns the number of live executor shards.
func (e *Executor) NumShards() int { return len(e.shards) }

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

// NewSession registers a request producer (one per connection), bound to
// the shard with the fewest live sessions.
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

// item is one routed request in a shard ring: the fixed op (or KV op) plus
// its session/seq completion tag and the memoized key hash. Fixed-op
// items are pure values — the multi-producer enqueue path allocates
// nothing.
type item struct {
	sess *Session
	seq  uint64
	hash uint64
	op   core.Op
	kv   *KVOp
}

// tag is one in-flight pipeline entry's completion address.
type tag struct {
	sess *Session
	seq  uint64
	kv   *KVOp
}

// shard is one executor lane: a goroutine owning a table handle and its
// long-lived pipelines, consuming a multi-producer ring.
type shard struct {
	e  *Executor
	id int
	h  *core.Handle

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
	kv      expiry.KV        // the handle's mutation surface for KV ops
	kvp     *core.KVPipeline // lazily, Allocator tables only
	kvpW    int
	scratch []item
	tags    tagRing      // fixed-op pipeline completion tags, FIFO
	kvTags  tagRing      // KV read pipeline completion tags, FIFO
	pending []doneEntry  // completions staged between deliveries
	dead    []*KVOp      // reads that found their pair expired; deleted at the next delivery
	clk     expiry.Clock // sampled once per ring batch
	kvOps   int          // KV ops since the last epoch advance
	// dlht:ok:fieldalignment — dirty could pack beside closed (saving a
	// word) but closed is producer-side state and dirty is written by the
	// shard goroutine every loop; sharing their word invites false sharing.
	dirty bool // executed something since the last idle flush
}

// doneEntry is one staged completion awaiting delivery to its session.
// Staging lets the shard post a whole batch's completions with one
// session lock per contiguous same-session run instead of one per op.
type doneEntry struct {
	sess   *Session
	seq    uint64
	walSeq uint64 // redo-log sequence of the op's record (0: none)
	op     core.Op
	kv     *KVOp
}

func newShard(e *Executor, id int, h *core.Handle, window, ring int) *shard {
	sh := &shard{e: e, id: id, h: h, kv: expiry.Bind(h, e.idx, e.wal), clk: e.idx.Clock()}
	sh.notEmpty.L = &sh.mu
	sh.notFull.L = &sh.mu
	sh.ring = make([]item, ring)
	sh.mask = uint64(ring - 1)
	sh.scratch = make([]item, ring)
	sh.pl = h.Pipeline(core.PipelineOpts{Window: window, OnComplete: sh.completeFixed})
	sh.kvpW = window
	sh.tags.init(sh.pl.Window() + 2)
	return sh
}

// enqueue admits one item, blocking while the ring is full. It reports
// false when the executor has been closed — the caller then completes the
// item itself with ErrClosed so sequence accounting stays intact.
func (sh *shard) enqueue(it item) bool {
	sh.mu.Lock()
	for sh.head-sh.tail == uint64(len(sh.ring)) && !sh.closed {
		sh.notFull.Wait()
	}
	if sh.closed {
		sh.mu.Unlock()
		return false
	}
	sh.ring[sh.head&sh.mask] = it
	sh.head++
	if sh.head-sh.tail == 1 {
		sh.notEmpty.Signal()
	}
	sh.mu.Unlock()
	return true
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
// pipelines and exits.
func (sh *shard) close() {
	sh.mu.Lock()
	sh.closed = true
	sh.notEmpty.Signal()
	sh.notFull.Broadcast()
	sh.mu.Unlock()
}

// run is the shard goroutine: drain the ring in batches, execute, and —
// when the ring empties — flush the pipelines so tails complete while the
// shard would otherwise sleep. Between back-to-back batches the pipelines
// stay primed, which is how cross-connection traffic inherits the
// window-carries-over property of the streaming server loop.
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
			sh.ring[j] = item{} // drop session/KV references
		}
		sh.tail += n
		if wasFull {
			sh.notFull.Broadcast()
		}
		sh.mu.Unlock()
		sh.clk.Reset()
		for i := range sh.scratch[:n] {
			sh.exec(&sh.scratch[i])
			sh.scratch[i] = item{}
		}
		sh.deliver()
		sh.dirty = true
	}
	sh.flushIdle()
	sh.pl.Close()
	if sh.kvp != nil {
		sh.kvp.Close()
	}
	sh.h.Close()
}

// flushIdle completes everything in flight, delivers it, and refreshes the
// handle's epoch (a no-op off EpochGC tables) so views freed by other
// handles reclaim even on a shard that then sleeps.
func (sh *shard) flushIdle() {
	if sh.kvp != nil && sh.kvp.InFlight() > 0 {
		sh.kvp.Flush()
	}
	if sh.pl.InFlight() > 0 {
		sh.pl.Flush()
	}
	sh.deliver()
	if sh.kvOps > 0 {
		sh.h.AdvanceEpoch()
		sh.kvOps = 0
	}
	sh.dirty = false
}

// reap deletes the pairs that reads since the last delivery found expired
// and answered as misses: the locked check-and-delete, behind a flush of
// the in-flight reads. It runs before their completions are delivered,
// while the ops still own their key bytes.
func (sh *shard) reap() {
	if len(sh.dead) == 0 {
		return
	}
	sh.kvp.Flush() // may find more
	for i, kv := range sh.dead {
		sh.kv.Expired(kv.NS, kv.Key, sh.e.tbl.HashOfKV(kv.NS, kv.Key))
		sh.dead[i] = nil
	}
	sh.dead = sh.dead[:0]
}

// deliver posts the staged completions to their sessions, one lock per
// contiguous same-session run.
func (sh *shard) deliver() {
	sh.reap()
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
		pend[i] = doneEntry{} // drop session/KV references
	}
	sh.pending = pend[:0]
}

// exec feeds one item into the shard's execution surfaces.
func (sh *shard) exec(it *item) {
	if it.kv != nil {
		sh.execKV(it)
		return
	}
	sh.tags.push(tag{sess: it.sess, seq: it.seq})
	sh.pl.EnqueueHashed(it.op, it.hash)
}

// completeFixed is the fixed-op pipeline's completion callback: pop the
// oldest tag (completions fire in enqueue order), append the durable
// table's redo record, and stage the result for the next delivery. An
// append failure surfaces as the op's error — it executed in memory but
// its durability can no longer be promised.
func (sh *shard) completeFixed(op *core.Op) {
	t := sh.tags.pop()
	var wseq uint64
	if w := sh.e.wal; w != nil {
		var err error
		if wseq, err = w.LogOp(op); err != nil {
			op.OK, op.Err = false, err
		}
	}
	sh.pending = append(sh.pending, doneEntry{sess: t.sess, seq: t.seq, walSeq: wseq, op: *op})
}

// ensureKVP lazily builds the shard's KVPipeline (Allocator tables only).
func (sh *shard) ensureKVP() *core.KVPipeline {
	if sh.kvp == nil {
		sh.kvp = sh.h.KVPipeline(core.KVPipelineOpts{Window: sh.kvpW, OnComplete: sh.completeKV})
		sh.kvTags.init(sh.kvp.Window() + 2)
	}
	return sh.kvp
}

// execKV runs one variable-length op. Reads stream through the shard's
// KVPipeline (two-level bin+block prefetch); a completion carries its
// pair's deadline, and completeKV turns a passed one into a miss.
// Mutations run on the shard's expiry.KV behind a flush of the in-flight
// reads, so per-key read-then-write order holds and no view outlives its
// block. The KV appends a durable table's redo records; the op's Done
// carries the sequence.
func (sh *shard) execKV(it *item) {
	kv := it.kv
	t := sh.e.tbl
	done := doneEntry{sess: it.sess, seq: it.seq, kv: kv}
	if kv.Err = t.CheckKV(kv.NS, kv.Key, kv.Value, kv.Kind == KVInsert); kv.Err != nil {
		sh.pending = append(sh.pending, done)
		return
	}
	hash := t.HashOfKV(kv.NS, kv.Key)
	kvp := sh.ensureKVP()
	if kv.Kind == KVGet {
		sh.kvTags.push(tag{sess: it.sess, seq: it.seq, kv: kv})
		kvp.GetHashed(kv.NS, kv.Key, hash)
	} else {
		kvp.Flush()
		switch kv.Kind {
		case KVInsert:
			// NX keeps InsertKV's contract: a live key refuses with ErrExists.
			if kv.OK, done.walSeq, kv.Err = sh.kv.Set(kv.NS, kv.Key, kv.Value, hash, 0, expiry.NX); kv.Err == nil && !kv.OK {
				kv.Err = core.ErrExists
			}
		case KVDelete:
			// An append failure withdraws the success: applied in memory,
			// not durable.
			kv.OK, done.walSeq, kv.Err = sh.kv.Delete(kv.NS, kv.Key, hash)
			kv.OK = kv.OK && kv.Err == nil
		default:
			kv.Err = ErrClosed
		}
		sh.pending = append(sh.pending, done)
	}
	// Periodic epoch refresh keeps deleted blocks reclaiming under
	// sustained load; flush reads first so no in-flight view spans the
	// advance.
	if sh.kvOps++; sh.kvOps >= kvEpochEvery {
		kvp.Flush()
		sh.h.AdvanceEpoch()
		sh.kvOps = 0
	}
}

// completeKV is the KV read pipeline's completion callback. The value view
// is copied immediately — while the shard handle's epoch pin still covers
// it — into a buffer the KVOp owns. A pair past its deadline is a miss,
// and is queued for reap.
func (sh *shard) completeKV(g *core.KVGet) {
	t := sh.kvTags.pop()
	kv := t.kv
	kv.OK = g.OK && !expiry.Dead(g.Meta, sh.clk.Now())
	if kv.OK {
		kv.Out = append(kv.Out[:0], g.Value...)
	} else if g.OK {
		sh.dead = append(sh.dead, kv)
	}
	sh.pending = append(sh.pending, doneEntry{sess: t.sess, seq: t.seq, kv: kv})
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
