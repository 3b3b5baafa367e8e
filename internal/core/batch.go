package core

import (
	"sync/atomic"

	"repro/internal/cpuops"
)

// Batching (§3.3): the client hands DLHT an array of requests; DLHT issues
// one software prefetch per request's bin, overlapping their memory
// latencies, then executes the requests strictly in order. Order
// preservation is the differentiator against DRAMHiT's reordering batches —
// it is what makes the batch API safe for lock managers and transactional
// protocols (§5.3.3). The per-request index-GC notifications (enter/leave)
// are paid once per batch instead of once per request.
//
// Exec runs its own window loop over the ring type in pipeline.go: it
// walks the slice with at most Config.PrefetchWindow bins in flight ahead
// of execution, so the lines fetched for request i are still cache-resident
// when request i executes. Every op of a batch is issued against the one
// index Exec entered, and the ring holds only the bins memoized while they
// were prefetched, so execution never recomputes the hash; the ops stay in
// the caller's slice. A resize redirect invalidates the memoized bin and
// the op recomputes it against the successor index. Each op executes
// through execOneAt — the op gate, then the op's *At body — the dispatch a
// Pipeline completion runs too.

// OpKind identifies a batched request type.
type OpKind uint8

const (
	// OpGet reads a key.
	OpGet OpKind = iota
	// OpPut overwrites an existing key's value (Inlined mode only).
	OpPut
	// OpInsert adds a new key.
	OpInsert
	// OpInsertShadow adds a hidden (transaction-locked) key.
	OpInsertShadow
	// OpDelete removes a key.
	OpDelete
	// OpCommitShadow publishes a shadow insert (Value!=0 commits, 0 aborts).
	OpCommitShadow
)

// Op is one request in a batch. Kind, Key and Value are inputs; Result, OK
// and Err are outputs. Field order is size-sorted (words, interface,
// bytes): an Op is 48 bytes instead of 56, and Ops ride every ring in
// the system — pipeline windows, executor rings, reorder slots.
type Op struct {
	Key   uint64
	Value uint64

	// Result carries the read value (Get), previous value (Put/Delete) or
	// existing value (failed Insert).
	Result uint64
	// Err carries Insert errors (ErrExists, ErrShadow, ErrFull, ...).
	Err error

	Kind OpKind
	// OK reports per-kind success: key found (Get/Put/Delete) or key newly
	// inserted (Insert).
	OK bool
}

// Exec runs the batch in order and returns the number of operations
// executed. When stopOnFail is true, execution terminates at the first
// operation whose OK is false — e.g. a lock manager aborting a lock
// acquisition sequence (§3.3); subsequent ops are left untouched.
//
// For issuing requests incrementally with per-request completions, see
// Handle.Pipeline.
func (h *Handle) Exec(ops []Op, stopOnFail bool) int {
	t := h.t
	n := len(ops)
	if n == 0 {
		return 0
	}
	mutates := false
	for i := range ops {
		if ops[i].Kind != OpGet {
			mutates = true
			break
		}
	}
	if mutates {
		t.beginUpdate()
	}
	w := t.prefetchWindow(n)
	bins := &h.bins
	bins.reset(w) // more than w entries: the window never fills the ring
	ix := h.enter()
	// ops[:done] are executed and ops[done:i] in flight, op j's bin at
	// bins.ents[j&bins.mask].
	done := 0
	for i := range ops {
		b := t.binFor(ix, ops[i].Key)
		bins.ents[i&bins.mask] = b
		cpuops.PrefetchUint64(ix.headerAddr(b))
		if i-done >= w {
			op := &ops[done]
			h.execOneAt(ix, op, bins.ents[done&bins.mask])
			done++
			if stopOnFail && !op.OK {
				goto out
			}
		}
	}
	for done < n {
		op := &ops[done]
		h.execOneAt(ix, op, bins.ents[done&bins.mask])
		done++
		if stopOnFail && !op.OK {
			break
		}
	}
out:
	if mutates {
		t.endUpdate()
	}
	return done // ops still in flight are abandoned
}

// execOneAt executes one batched op whose bin within ix was memoized by the
// prefetch stage: the op gate, then the op's *At body — the
// synchronization-free one on a single-thread table (§3.4.5), which strips
// CASes, resize checks and enter/leave notifications but keeps the
// window's prefetch. The gate inlines into each case, where the kind is
// known, and folds to the checks that kind needs: for a Get, one mode
// compare. The *At bodies recompute the bin when a resize redirected it.
func (h *Handle) execOneAt(ix *index, op *Op, b uint64) {
	t := h.t
	st := t.cfg.SingleThread
	switch op.Kind {
	case OpGet:
		if op.Err = t.opErr(OpGet, op.Key); op.Err == nil {
			if st {
				op.Result, op.OK = h.stGetAt(ix, op.Key, b)
			} else {
				op.Result, op.OK = t.getInAt(ix, op.Key, b)
			}
			return
		}
	case OpPut:
		if op.Err = t.opErr(OpPut, op.Key); op.Err == nil {
			if st {
				op.Result, op.OK = h.stPutAt(ix, op.Key, op.Value, b)
			} else {
				op.Result, op.OK = t.putInAt(h, ix, op.Key, op.Value, b, nil)
			}
			return
		}
	case OpInsert, OpInsertShadow:
		if op.Err = t.opErr(op.Kind, op.Key); op.Err == nil {
			final := slotValid
			if op.Kind == OpInsertShadow {
				final = slotShadow
			}
			if st {
				op.Result, op.Err = h.stInsertAt(ix, op.Key, op.Value, final, b)
			} else {
				op.Result, op.Err = t.insertInAt(h, ix, op.Key, op.Value, final, b, nil)
			}
			op.OK = op.Err == nil
			return
		}
	case OpDelete:
		if op.Err = t.opErr(OpDelete, op.Key); op.Err == nil {
			if st {
				op.Result, op.OK = h.stDeleteAt(ix, op.Key, b)
			} else {
				op.Result, op.OK = t.deleteInAt(h, ix, op.Key, b, nil)
			}
			return
		}
	case OpCommitShadow:
		if op.Err = t.opErr(OpCommitShadow, op.Key); op.Err == nil {
			if st {
				op.OK = h.stCommitShadowAt(ix, op.Key, op.Value != 0, b)
			} else {
				op.OK = h.commitShadowInAt(ix, op.Key, op.Value != 0, b)
			}
			return
		}
	}
	op.OK = false // the gate refused
}

// commitShadowInAt is the concurrent CommitShadow body.
func (h *Handle) commitShadowInAt(ix *index, key uint64, commit bool, b uint64) bool {
	t := h.t
	for {
		hdrAddr := ix.headerAddr(b)
		hdr := atomic.LoadUint64(hdrAddr)
		if nx := ix.redirect(b, hdr); nx != nil {
			ix = nx
			b = t.binFor(ix, key)
			continue
		}
		slot, _, st := ix.scanBin(b, hdr, key, -1, true)
		if slot == scanRetry {
			continue
		}
		if slot == scanMiss || st != slotShadow {
			return false
		}
		target := slotValid
		if !commit {
			target = slotInvalid
		}
		if atomic.CompareAndSwapUint64(hdrAddr, hdr, bumpVersion(withSlotState(hdr, slot, target))) {
			if commit {
				t.bumpVer(key)
			}
			return true
		}
	}
}

// PrefetchKey issues a software prefetch for the bin of key, the
// coroutine-style interface of §3.3: call it, yield to other work, then
// issue the request once the cache line has arrived.
func (h *Handle) PrefetchKey(key uint64) {
	ix := h.t.current.Load()
	b := h.t.binFor(ix, key)
	cpuops.PrefetchUint64(ix.headerAddr(b))
}
