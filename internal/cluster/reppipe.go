package cluster

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/server"

	core "repro/internal/core"
)

// repPipe is the replicated pipelined surface: each write enqueue fans
// out to the key's replica set over the per-shard pipes and its user
// completion fires once WriteQuorum replicas have acked; each read
// enqueue goes to the primary and fails over, replica by replica, on
// retryable errors. User completions for ops sharing a primary are
// delivered strictly in enqueue order — per-key program order — even
// when a middle op's quorum is slow or a read is bouncing between
// replicas: a resolved op waits behind its queue predecessors.
//
// Ordering across replicas holds for acked ops: writes to a key are
// enqueued to every replica's pipe in program order, and each pipe
// preserves its own enqueue order end to end. An op that completes WITH
// an error after a transport failure is indeterminate — it may have
// applied on some replicas (even late, after the failure was reported) —
// the standard at-most-once-ack, at-least-zero-apply shape of a
// distributed write.
//
// The pipe routes on an adopted ring snapshot (tab) and re-checks the
// published ring at every enqueue: on a generation change it flushes all
// in-flight ops under the old view, then adopts the new one. Per-key
// order therefore survives a reshard flip — ops under the old ring are
// fully delivered before any op routes under the new one. During a
// handoff window writes additionally journal moving keys and double-write
// to the incoming owners (best-effort, outside the quorum).
//
// repPipe is the only implementation of a replicated operation: the
// Cluster's synchronous methods run on a window-1 instance of it
// (Cluster.sync). Like every Pipe it is single-goroutine; the only
// concurrency is the detector's prober, which is internally locked.
type repPipe struct {
	c      *Cluster
	tab    *ringTab // adopted ring view; refreshed at enqueue boundaries
	window int
	pipes  []core.Pipe // slot-indexed; nil entries open lazily
	onc    func(core.Completion)

	dq []opQueue // per PRIMARY shard: user ops in enqueue (delivery) order
	aq []opQueue // per shard: ops with a completion outstanding THERE, in arrival order

	inflight int // user ops enqueued, not yet delivered
	free     *repOp
	scratch  []int // target-ring replica-set buffer (handoff window)
	closed   bool
}

// repOp is one user operation in flight across its replica set.
type repOp struct {
	kind    core.OpKind
	key     uint64
	val     uint64
	primary int
	cands   []int // replica set, rank order (cands[0] == primary)

	need      int // acks required to resolve OK (writes: W; reads: 1)
	acks      int
	remaining int // shard completions still outstanding
	nextCand  int // reads: next rank to try on retryable failure

	res       core.Completion
	haveRes   bool
	errc      error // last retryable failure seen
	resolved  bool
	delivered bool
	retired   bool
	fanning   bool // write fan-out in progress: failure settlement deferred
	extraRem  int  // handoff double-write completions outstanding (outside quorum)

	next *repOp // freelist link
}

// opQueue is a FIFO of op pointers with an amortized-compacting head.
type opQueue struct {
	ops  []*repOp
	head int
}

func (q *opQueue) push(op *repOp) { q.ops = append(q.ops, op) }

func (q *opQueue) empty() bool { return q.head == len(q.ops) }

func (q *opQueue) peek() *repOp { return q.ops[q.head] }

func (q *opQueue) pop() *repOp {
	op := q.ops[q.head]
	q.ops[q.head] = nil
	q.head++
	if q.head >= 64 && q.head*2 >= len(q.ops) {
		n := copy(q.ops, q.ops[q.head:])
		for i := n; i < len(q.ops); i++ {
			q.ops[i] = nil
		}
		q.ops = q.ops[:n]
		q.head = 0
	}
	return op
}

// removeLast removes the most recent occurrence of op (used to undo a
// push when the shard pipe rejected the frame outright; nested inline
// completions may have pushed entries after ours, so search backward).
func (q *opQueue) removeLast(op *repOp) {
	for i := len(q.ops) - 1; i >= q.head; i-- {
		if q.ops[i] == op {
			copy(q.ops[i:], q.ops[i+1:])
			q.ops = q.ops[:len(q.ops)-1]
			return
		}
	}
}

func (c *Cluster) newRepPipe(w int, onc func(core.Completion)) *repPipe {
	tab := c.topo.tab.Load()
	n := len(tab.names)
	p := &repPipe{
		c:      c,
		tab:    tab,
		window: w,
		pipes:  make([]core.Pipe, n),
		onc:    onc,
		dq:     make([]opQueue, n),
		aq:     make([]opQueue, n),
	}
	c.seenGen.Store(tab.gen)
	return p
}

// pipe returns the per-shard pipe for slot s, opening the store and its
// pipe lazily. Opening cannot fire completions, so callers may take the
// pipe before touching the arrival queues.
func (p *repPipe) pipe(s int) (core.Pipe, error) {
	for len(p.pipes) <= s {
		p.pipes = append(p.pipes, nil)
	}
	if sp := p.pipes[s]; sp != nil {
		return sp, nil
	}
	st, err := p.c.stores.get(s)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", server.ErrRetryable, err)
	}
	sp, err := st.Pipe(core.PipeOpts{Window: p.window, OnComplete: func(sc core.Completion) {
		p.onShard(s, sc)
	}})
	if err != nil {
		return nil, fmt.Errorf("%w: shard pipe: %w", server.ErrRetryable, err)
	}
	p.pipes[s] = sp
	return sp, nil
}

// adopt switches the pipe to a newer published ring view. All in-flight
// ops were routed under the old view, so they are flushed to completion
// first; only then does seenGen advance — after this point no undelivered
// op of an older generation exists in this pipe, which is exactly what
// the coordinator's quiesce needs to be true.
func (p *repPipe) adopt(tab *ringTab) {
	p.Flush() // errors surface through the ops' own completions
	n := len(tab.names)
	for len(p.dq) < n {
		p.dq = append(p.dq, opQueue{})
	}
	for len(p.aq) < n {
		p.aq = append(p.aq, opQueue{})
	}
	p.tab = tab
	p.c.seenGen.Store(tab.gen)
}

func (p *repPipe) getOp() *repOp {
	op := p.free
	if op == nil {
		op = &repOp{}
	} else {
		p.free = op.next
	}
	cands := op.cands[:0]
	*op = repOp{cands: cands}
	return op
}

// maybeRetire returns a fully drained, delivered op to the freelist.
// The retired guard makes it idempotent: nested inline completion chains
// can reach a drained op through more than one stack frame.
func (p *repPipe) maybeRetire(op *repOp) {
	if !op.retired && op.delivered && op.remaining == 0 && op.extraRem == 0 {
		op.retired = true
		op.next = p.free
		p.free = op
	}
}

func (p *repPipe) Get(key uint64) error      { return p.enq(core.OpGet, key, 0) }
func (p *repPipe) Put(key, val uint64) error { return p.enq(core.OpPut, key, val) }
func (p *repPipe) Insert(key, val uint64) error {
	return p.enq(core.OpInsert, key, val)
}
func (p *repPipe) Delete(key uint64) error { return p.enq(core.OpDelete, key, 0) }

func (p *repPipe) enq(kind core.OpKind, key, val uint64) error {
	if p.closed {
		return errors.New("cluster: Pipe used after Close")
	}
	// Raise the instance's inflight BEFORE the tab load (quiesce fence);
	// deliver() lowers it once this op's user completion fires.
	p.c.inflight.Add(1)
	if tab := p.c.topo.tab.Load(); tab.gen != p.tab.gen {
		p.adopt(tab)
	}
	tab := p.tab
	if kind != core.OpGet {
		// A write to a sealed moving range must wait for the flip: the
		// pipe is already flushed (adopt), so spinning here is safe.
		for tab.phase == phaseSealed && p.c.topo.keyMoving(tab, key) {
			time.Sleep(200 * time.Microsecond)
			if nt := p.c.topo.tab.Load(); nt.gen != tab.gen {
				p.adopt(nt)
				tab = p.tab
			}
		}
	}
	h := p.c.topo.keyh(key)
	op := p.getOp()
	op.kind, op.key, op.val = kind, key, val
	op.cands = replicasOn(tab.ring, h, p.c.topo.replicas, op.cands)
	op.primary = op.cands[0]

	var extras []int
	if kind != core.OpGet && tab.phase == phaseHandoff {
		newSet := replicasOn(tab.next, h, p.c.topo.replicas, p.scratch)
		p.scratch = newSet
		extras = newSet[:0] // filter in place: incoming owners not already replicas
		for _, s := range newSet {
			if !slices.Contains(op.cands, s) {
				extras = append(extras, s)
			}
		}
		if len(extras) > 0 {
			// Journal BEFORE any shard enqueue: the sealed-phase copy
			// re-reads journaled keys authoritatively.
			p.c.topo.journalAdd(key)
		}
	}

	p.inflight++
	// Queue for delivery BEFORE any shard enqueue: an inline completion
	// burst during the fan-out must find this op at the queue tail.
	p.dq[op.primary].push(op)

	if kind == core.OpGet {
		op.need = 1
		p.tryNextReplica(op)
	} else {
		op.need = p.c.topo.wq
		op.nextCand = len(op.cands)
		// An inline error completion mid-fan-out would see a transiently
		// empty in-flight set and mis-settle the op as quorum-impossible;
		// hold failure settlement until every replica has been attempted.
		op.fanning = true
		var attempted uint64
		for r, s := range op.cands {
			if p.c.topo.det.isDown(s) {
				continue
			}
			attempted |= 1 << r
			p.enqShard(s, op)
		}
		if op.acks+op.remaining < op.need {
			// Second chance: the up replicas cannot reach quorum, so the
			// known-down ones are worth a (possibly redialing) attempt.
			for r, s := range op.cands {
				if attempted&(1<<r) == 0 {
					p.enqShard(s, op)
				}
			}
		}
		// Handoff double-write warm-up: outside the quorum, failures only
		// feed the detector (the journal is the correctness mechanism).
		for _, s := range extras {
			if !p.c.topo.det.isDown(s) {
				p.enqExtra(s, op)
			}
		}
		op.fanning = false
	}
	p.settle(op)
	p.deliver(op.primary)
	p.maybeRetire(op)
	return nil
}

// sendOn issues op's request on one shard pipe.
func (op *repOp) sendOn(sp core.Pipe) error {
	switch op.kind {
	case core.OpGet:
		return sp.Get(op.key)
	case core.OpPut:
		return sp.Put(op.key, op.val)
	case core.OpInsert:
		return sp.Insert(op.key, op.val)
	}
	return sp.Delete(op.key)
}

// enqShard enqueues op on shard s's pipe, tracking the outstanding
// completion in s's arrival queue. Reports whether a completion is now
// owed (the pipe accepted the frame — or already completed it inline).
func (p *repPipe) enqShard(s int, op *repOp) bool {
	sp, perr := p.pipe(s)
	if perr != nil {
		// Unopenable shard: same shape as an outright frame rejection.
		op.errc = perr
		p.c.topo.det.fail(s)
		return false
	}
	// Push BEFORE the pipe call: a transport failure inside it delivers
	// error completions inline for everything outstanding on that pipe —
	// including, per the clientPipe contract, this very op when its frame
	// was accepted before the failure.
	p.aq[s].push(op)
	op.remaining++
	if err := op.sendOn(sp); err != nil {
		// Frame never sent; no completion will come. Undo the push (by
		// identity — inline completions may have reshaped the queue).
		p.aq[s].removeLast(op)
		op.remaining--
		op.errc = err
		p.c.topo.det.fail(s)
		return false
	}
	return true
}

// enqExtra enqueues op's handoff double-write on incoming owner s. The
// attempt is tracked in extraRem, not remaining: it can neither ack a
// quorum nor fail one.
func (p *repPipe) enqExtra(s int, op *repOp) {
	sp, perr := p.pipe(s)
	if perr != nil {
		p.c.topo.det.fail(s)
		return
	}
	p.aq[s].push(op)
	op.extraRem++
	if err := op.sendOn(sp); err != nil {
		p.aq[s].removeLast(op)
		op.extraRem--
		p.c.topo.det.fail(s)
	}
}

// tryNextReplica enqueues a read on its next untried replica, preferring
// up shards but falling back to a down one when nothing better remains.
// Reports whether an attempt is now in flight.
func (p *repPipe) tryNextReplica(op *repOp) bool {
	for {
		r := -1
		for i := op.nextCand; i < len(op.cands); i++ {
			if !p.c.topo.det.isDown(op.cands[i]) {
				r = i
				break
			}
		}
		if r < 0 && op.nextCand < len(op.cands) {
			r = op.nextCand // all remaining are down: last resort, in rank order
		}
		if r < 0 {
			return false
		}
		op.nextCand = r + 1
		if p.enqShard(op.cands[r], op) {
			return true
		}
	}
}

// onShard is every shard pipe's completion callback: it pops the op the
// completion belongs to (arrival order == that pipe's enqueue order),
// folds the outcome into the op's quorum state, drives read failover,
// and delivers whatever the op's primary queue now has ready.
func (p *repPipe) onShard(s int, sc core.Completion) {
	op := p.aq[s].pop()
	rank := slices.Index(op.cands, s)
	if rank < 0 {
		// Handoff double-write completion: detector feedback only — it is
		// outside the quorum and cannot change the op's outcome.
		op.extraRem--
		if sc.Err != nil {
			if server.IsRetryable(sc.Err) {
				p.c.topo.det.fail(s)
			}
		} else {
			p.c.topo.det.ok(s)
		}
		p.maybeRetire(op)
		return
	}
	op.remaining--
	if sc.Err != nil && server.IsRetryable(sc.Err) {
		p.c.topo.det.fail(s)
		op.errc = sc.Err
		if op.kind == core.OpGet && !op.resolved && p.tryNextReplica(op) {
			return // failover attempt in flight; not settled yet
		}
	} else {
		// Success or a terminal refusal: the shard processed the op
		// either way, which counts toward the quorum. Prefer the first
		// non-error result; a terminal refusal stands only if no replica
		// plainly succeeded.
		p.c.topo.det.ok(s)
		op.acks++
		if op.kind == core.OpGet && rank > 0 && sc.Err == nil {
			// Served by a lower-rank replica: the copies may have diverged
			// under W < R. Read repair runs out of band.
			p.c.topo.noteDivergence(op.key)
		}
		// A resolved op's outcome is frozen: once settle declared quorum
		// failure, a straggler ack (reachable-but-late replica) must not
		// flip the reported result to success — the write is already
		// indeterminate from the caller's point of view.
		if !op.resolved && (!op.haveRes || (op.res.Err != nil && sc.Err == nil)) {
			op.res = sc
			op.haveRes = true
		}
	}
	p.settle(op)
	p.deliver(op.primary)
	p.maybeRetire(op)
}

// settle resolves op once its outcome is decided: quorum reached, or no
// longer reachable even if every outstanding attempt succeeds.
func (p *repPipe) settle(op *repOp) {
	if op.resolved {
		return
	}
	if op.acks >= op.need {
		op.resolved = true
		if !op.haveRes {
			op.res = core.Completion{Kind: op.kind, Key: op.key}
		}
		return
	}
	if op.acks+op.remaining < op.need && !op.fanning {
		op.resolved = true
		err := op.errc
		if err == nil {
			err = errors.New("replicas unreachable")
		}
		op.res = core.Completion{
			Kind: op.kind, Key: op.key,
			Err: fmt.Errorf("cluster: quorum %d/%d: %w", op.acks, op.need, err),
		}
	}
}

// deliver fires user completions for the resolved prefix of primary's
// delivery queue, preserving enqueue order per primary.
func (p *repPipe) deliver(primary int) {
	q := &p.dq[primary]
	for !q.empty() && q.peek().resolved {
		op := q.pop()
		op.delivered = true
		p.inflight--
		p.c.inflight.Add(-1)
		if p.onc != nil {
			p.onc(op.res)
		}
		p.maybeRetire(op)
	}
}

// Flush drives every shard pipe until all user completions have fired.
// Read failovers enqueued while draining need further passes; the rank
// walk bounds them by the replica count. Flush never leaves an op
// undelivered — on total shard loss every op completes with the
// transport error.
func (p *repPipe) Flush() error {
	var first error
	for pass := 0; p.inflight > 0 && pass <= p.c.topo.replicas+2; pass++ {
		for _, q := range p.pipes {
			if q == nil {
				continue
			}
			if err := q.Flush(); err != nil && first == nil {
				first = err
			}
		}
	}
	if p.inflight > 0 {
		// Defensive: should be unreachable (every aq drain settles its
		// ops), but the no-hang contract must hold regardless.
		err := first
		if err == nil {
			err = errors.New("cluster: pipe flush stalled")
		}
		for i := range p.dq {
			for q := &p.dq[i]; !q.empty(); {
				op := q.peek()
				if !op.resolved {
					op.resolved = true
					op.res = core.Completion{Kind: op.kind, Key: op.key, Err: err}
				}
				p.deliver(i)
			}
		}
	}
	return first
}

// Close flushes and closes every shard pipe. The Cluster remains usable.
func (p *repPipe) Close() error {
	if p.closed {
		return nil
	}
	first := p.Flush()
	for _, q := range p.pipes {
		if q == nil {
			continue
		}
		if err := q.Close(); err != nil && first == nil {
			first = err
		}
	}
	p.closed = true
	return first
}
