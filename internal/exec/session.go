package exec

import (
	"sync"

	core "repro/internal/core"
)

// Done is one completed request, delivered by Await in submission order;
// Op carries its result fields.
type Done struct {
	Op core.Op
}

// doneSlot is one reorder-ring cell.
type doneSlot struct {
	d      Done
	filled bool
}

// Session is one producer's port into the executor: a producer side
// (SubmitBatch, single goroutine) plus a consumer side (Await, single —
// possibly different — goroutine) that yields completions strictly in
// submission order, whatever order the shards finished them in. The
// seq-indexed reorder ring between the two grows on demand up to
// defaultSessionWindow, which is the session's in-flight bound:
// SubmitBatch blocks while the consumer is a full window behind.
type Session struct {
	e     *Executor
	shard *shard // every request of the session executes here

	mu        sync.Mutex
	cond      sync.Cond // consumer waits for the next in-order completion
	prod      sync.Cond // producers wait for reorder-ring space
	ring      []doneSlot
	submitted uint64 // next seq to assign
	next      uint64 // next seq Await will deliver
	finished  bool

	// scratch stages SubmitBatch items so a whole burst moves into the
	// shard ring with one gate and one ring lock.
	scratch []item
}

// SubmitBatch routes a run of ops into the executor: one gate for the
// whole run and one ring lock per chunk, so a deep burst pays amortized
// rather than per-op synchronization. It blocks while the session is at
// its in-flight bound or the shard ring is full, and fails with ErrClosed —
// after completing the unrouted ops with that error, so sequence
// accounting stays intact — when the executor has been closed.
func (s *Session) SubmitBatch(ops []core.Op) error {
	t := s.e.tbl
	if s.scratch == nil {
		s.scratch = make([]item, 256)
	}
	for len(ops) > 0 {
		want := len(ops)
		if want > len(s.scratch) {
			want = len(s.scratch)
		}
		seq0, n := s.gateN(want)
		for i := 0; i < n; i++ {
			op := ops[i]
			s.scratch[i] = item{sess: s, seq: seq0 + uint64(i), hash: t.HashOf(op.Key), op: op}
		}
		if acc := s.shard.enqueueBatch(s.scratch[:n]); acc < n {
			s.failClosed(s.scratch[acc:n])
			return ErrClosed
		}
		ops = ops[n:]
	}
	return nil
}

// failClosed completes gated-but-unrouted items with ErrClosed so the
// consumer still sees every sequence number.
func (s *Session) failClosed(items []item) {
	for i := range items {
		op := items[i].op
		op.OK, op.Err = false, ErrClosed
		s.complete(items[i].seq, op)
	}
}

// FinishSubmit declares that no further requests will be submitted. Await
// then reports done once every submitted request has been delivered.
func (s *Session) FinishSubmit() {
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	s.cond.Signal()
	s.mu.Unlock()
	s.e.detachSession(s)
}

// gateN assigns up to max consecutive sequence numbers (at least one),
// blocking while the reorder ring is at its in-flight bound.
func (s *Session) gateN(max int) (uint64, int) {
	s.mu.Lock()
	for {
		if s.finished {
			s.mu.Unlock()
			panic("exec: SubmitBatch after FinishSubmit")
		}
		free := len(s.ring) - int(s.submitted-s.next)
		if free == 0 && len(s.ring) < s.e.sessW {
			s.grow()
			free = len(s.ring) - int(s.submitted-s.next)
		}
		if free > 0 {
			if max > free {
				max = free
			}
			seq := s.submitted
			s.submitted += uint64(max)
			s.mu.Unlock()
			return seq, max
		}
		s.prod.Wait()
	}
}

// grow doubles the reorder ring, preserving in-flight entries at their
// absolute positions.
func (s *Session) grow() {
	old := s.ring
	oldMask := uint64(len(old) - 1)
	next := make([]doneSlot, len(old)*2)
	mask := uint64(len(next) - 1)
	for i := s.next; i < s.submitted; i++ {
		next[i&mask] = old[i&oldMask]
	}
	s.ring = next
}

// complete posts one finished request into the reorder ring (the
// SubmitBatch close path); never blocks — the gate reserved the slot.
func (s *Session) complete(seq uint64, op core.Op) {
	s.mu.Lock()
	slot := &s.ring[seq&uint64(len(s.ring)-1)]
	if debugAsserts {
		s.assertSeqWindow(seq, slot.filled)
	}
	slot.d = Done{Op: op}
	slot.filled = true
	if seq == s.next {
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// completeRun posts a shard's staged run of completions for this session
// under one lock, waking the consumer once if the in-order head became
// ready.
func (s *Session) completeRun(es []doneEntry) {
	s.mu.Lock()
	mask := uint64(len(s.ring) - 1)
	for i := range es {
		slot := &s.ring[es[i].seq&mask]
		if debugAsserts {
			s.assertSeqWindow(es[i].seq, slot.filled)
		}
		slot.d = Done{Op: es[i].op}
		slot.filled = true
	}
	if s.next < s.submitted && s.ring[s.next&mask].filled {
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// Await appends the next contiguous run of in-order completions to buf and
// returns it. When nothing is ready it first invokes onIdle once (outside
// the lock — a consumer that batches its output flushes it there), then
// blocks. ok=false means the session is finished and fully drained; no
// more completions will come.
func (s *Session) Await(buf []Done, onIdle func()) (run []Done, ok bool) {
	s.mu.Lock()
	for {
		got := false
		for s.next < s.submitted {
			slot := &s.ring[s.next&uint64(len(s.ring)-1)]
			if !slot.filled {
				break
			}
			buf = append(buf, slot.d)
			*slot = doneSlot{}
			s.next++
			got = true
		}
		if got {
			s.prod.Broadcast()
			s.mu.Unlock()
			return buf, true
		}
		if s.finished && s.next == s.submitted {
			s.mu.Unlock()
			return buf, false
		}
		if onIdle != nil {
			s.mu.Unlock()
			onIdle()
			onIdle = nil
			s.mu.Lock()
			continue
		}
		s.cond.Wait()
	}
}
