package exec

import (
	"sync"

	core "repro/internal/core"
)

// KVKind identifies a variable-length (Allocator-mode) request.
type KVKind uint8

const (
	// KVGet reads a byte key under a namespace.
	KVGet KVKind = iota
	// KVInsert adds a byte key/value pair under a namespace.
	KVInsert
	// KVDelete removes a byte key under a namespace.
	KVDelete
)

// KVOp is one variable-length request and, after completion, its result.
// Key and Value must stay valid and untouched from SubmitKV until the op
// is delivered by Await — submit a private copy, not a decode window. Out
// receives an owned copy of the value on a successful KVGet (reusing its
// capacity across ops when the caller recycles KVOps).
type KVOp struct {
	Kind  KVKind
	NS    uint16
	Key   []byte
	Value []byte

	Out []byte
	OK  bool
	Err error

	// charged is the byte count this op holds against its session's
	// in-flight KV budget: the request payload at submission, plus the
	// read value once it materializes. Credited back at delivery.
	charged int
}

// Done is one completed request, delivered by Await in submission order.
// KV is non-nil for variable-length ops; otherwise Op carries the fixed
// op's result fields. On an executor with a WAL, WALSeq is the redo-log
// sequence of the op's record (0 when the op logged nothing); before
// acknowledging the op externally the consumer must WAL.SyncWait a
// sequence ≥ the highest WALSeq it acknowledges.
type Done struct {
	Op     core.Op
	KV     *KVOp
	WALSeq uint64
}

// doneSlot is one reorder-ring cell.
type doneSlot struct {
	d      Done
	filled bool
}

// Session is one connection's port into the executor: a producer handle
// (Submit/SubmitKV/Fail, single goroutine) plus a consumer side (Await,
// single — possibly different — goroutine) that yields completions
// strictly in submission order, whatever order the shards finished them
// in. The seq-indexed reorder ring between the two grows on demand up to
// defaultSessionWindow, which is the session's in-flight bound: Submit
// blocks while the consumer is a full window behind.
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

	// kvInflight/kvBytes track in-flight variable-length ops against the
	// executor's per-session KV bounds; SubmitKV blocks at either bound.
	kvInflight int
	kvBytes    int

	// scratch stages SubmitBatch items so a whole decoded burst moves into
	// the shard ring with one gate and one ring lock.
	scratch []item
}

// Submit routes one fixed op into the executor. It blocks while the
// session is at its in-flight bound or the target shard ring is full, and
// fails with ErrClosed — after completing the op with that error, so
// sequence accounting stays intact — when the executor has been closed.
func (s *Session) Submit(op core.Op) error {
	seq := s.gate()
	if !s.shard.enqueue(item{sess: s, seq: seq, hash: s.e.tbl.HashOf(op.Key), op: op}) {
		op.OK, op.Err = false, ErrClosed
		s.complete(seq, op, nil)
		return ErrClosed
	}
	return nil
}

// SubmitBatch routes a run of fixed ops into the executor: one gate for
// the whole run and one ring lock per chunk, so a deeply pipelined
// connection pays amortized rather than per-op synchronization. Semantics
// match a Submit per op.
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
		s.complete(items[i].seq, op, nil)
	}
}

// SubmitKV routes one variable-length op into the executor; see KVOp for
// the buffer-ownership contract. Blocking and close behavior match
// Submit, with two further gates — the per-session KV op and payload-byte
// bounds — because each in-flight KV op owns its buffers.
func (s *Session) SubmitKV(kv *KVOp) error {
	need := len(kv.Key) + len(kv.Value)
	s.mu.Lock()
	for {
		if s.finished {
			s.mu.Unlock()
			panic("exec: Submit after FinishSubmit")
		}
		free := len(s.ring) - int(s.submitted-s.next)
		if free == 0 && len(s.ring) < s.e.sessW {
			s.grow()
			free = len(s.ring) - int(s.submitted-s.next)
		}
		if free > 0 && s.kvInflight < s.e.kvOps &&
			(s.kvBytes == 0 || s.kvBytes+need <= s.e.kvBytes) {
			break
		}
		s.prod.Wait()
	}
	seq := s.submitted
	s.submitted++
	s.kvInflight++
	s.kvBytes += need
	kv.charged = need
	s.mu.Unlock()

	if !s.shard.enqueue(item{sess: s, seq: seq, kv: kv}) {
		kv.Err = ErrClosed
		s.complete(seq, core.Op{}, kv)
		return ErrClosed
	}
	return nil
}

// Fail takes the next sequence slot and completes it immediately with err,
// without an executor round trip. Connection readers use it to emit an
// in-order error response (e.g. StatusBadRequest) behind everything
// already submitted.
func (s *Session) Fail(err error) {
	seq := s.gate()
	s.complete(seq, core.Op{Err: err}, nil)
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

// gate assigns the next sequence number, blocking while the reorder ring
// cannot take another in-flight request.
func (s *Session) gate() uint64 {
	seq, _ := s.gateN(1)
	return seq
}

// gateN assigns up to max consecutive sequence numbers (at least one),
// blocking while the reorder ring is at its in-flight bound.
func (s *Session) gateN(max int) (uint64, int) {
	s.mu.Lock()
	for {
		if s.finished {
			s.mu.Unlock()
			panic("exec: Submit after FinishSubmit")
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

// complete posts one finished request into the reorder ring. Called from
// shard goroutines (and from Submit/Fail error paths); never blocks — the
// gate reserved the slot at submission.
func (s *Session) complete(seq uint64, op core.Op, kv *KVOp) {
	s.mu.Lock()
	if kv != nil && len(kv.Out) > 0 {
		// The read value now also counts against the session's KV budget
		// until delivery; new SubmitKVs block once it is exceeded.
		kv.charged += len(kv.Out)
		s.kvBytes += len(kv.Out)
	}
	slot := &s.ring[seq&uint64(len(s.ring)-1)]
	if debugAsserts {
		s.assertSeqWindow(seq, slot.filled)
	}
	slot.d = Done{Op: op, KV: kv}
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
		if kv := es[i].kv; kv != nil && len(kv.Out) > 0 {
			kv.charged += len(kv.Out)
			s.kvBytes += len(kv.Out)
		}
		slot := &s.ring[es[i].seq&mask]
		if debugAsserts {
			s.assertSeqWindow(es[i].seq, slot.filled)
		}
		slot.d = Done{Op: es[i].op, KV: es[i].kv, WALSeq: es[i].walSeq}
		slot.filled = true
	}
	if s.next < s.submitted && s.ring[s.next&mask].filled {
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// Await appends the next contiguous run of in-order completions to buf and
// returns it. When nothing is ready it first invokes onIdle once (outside
// the lock — connection writers flush their response buffer there, the
// streaming analogue of drain-before-blocking), then blocks. ok=false
// means the session is finished and fully drained; no more completions
// will come.
func (s *Session) Await(buf []Done, onIdle func()) (run []Done, ok bool) {
	s.mu.Lock()
	for {
		got := false
		for s.next < s.submitted {
			slot := &s.ring[s.next&uint64(len(s.ring)-1)]
			if !slot.filled {
				break
			}
			if kv := slot.d.KV; kv != nil {
				// Delivery credits the op back to the KV bounds; the
				// consumer now owns its buffers.
				s.kvInflight--
				s.kvBytes -= kv.charged
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

// InFlight returns the number of submitted but not yet delivered requests.
func (s *Session) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.submitted - s.next)
}
