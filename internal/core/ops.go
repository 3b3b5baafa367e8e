package core

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Scan results for scanBin.
const (
	scanMiss  = -1 // key not in the bin (validated)
	scanRetry = -2 // header moved during the scan; caller must retry
)

// scanBin runs the Get algorithm's linear search (§3.2.1) over bin b of ix
// under the header snapshot hdr. It returns the slot holding key together
// with its value word and slot state, or scanMiss/scanRetry. skipSlot
// excludes a slot the caller owns in TryInsert state; includeShadow makes
// Shadow slots visible (they are hidden from normal Gets/Puts/Deletes).
//
// Consistency: the final header reload validates every key/value read made
// under hdr — any concurrent Insert/Delete/transfer bumps the version and
// forces scanRetry. Fixed Puts do not bump the version, but they replace
// only the value word of a slot whose key word is unchanged, so a value
// read that races a Put returns either the old or the new value, both
// linearizable. (A KV Put bumps it before retiring the block it replaced.)
func (ix *index) scanBin(b uint64, hdr uint64, key uint64, skipSlot int, includeShadow bool) (slot int, val uint64, state uint64) {
	meta := atomic.LoadUint64(ix.linkMetaAddr(b))
	limit := slotLimit(meta)
	hdrAddr := ix.headerAddr(b)
	for i := 0; i < limit; i++ {
		if i == skipSlot {
			continue
		}
		s := slotState(hdr, i)
		if s != slotValid && (!includeShadow || s != slotShadow) {
			continue
		}
		k, v := ix.loadSlot(b, meta, i)
		if k != key {
			continue
		}
		if atomic.LoadUint64(hdrAddr) != hdr {
			return scanRetry, 0, 0
		}
		return i, v, s
	}
	if atomic.LoadUint64(hdrAddr) != hdr {
		return scanRetry, 0, 0
	}
	return scanMiss, 0, 0
}

// waitBinTransferred spins until bin b leaves the InTransfer state. Bin
// transfers copy at most 15 slots, so the wait is short; this is the only
// place a non-resize operation can block, which is what makes DLHT
// "practically" rather than strictly non-blocking (§2.1).
func (ix *index) waitBinTransferred(b uint64) {
	hdrAddr := ix.headerAddr(b)
	for spins := 0; ; spins++ {
		if binState(atomic.LoadUint64(hdrAddr)) != binInTransfer {
			return
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// nextIndex returns the successor index, spinning until the resizer has
// published it. A bin can only be In/DoneTransfer after publication, so the
// wait is momentary.
func (ix *index) nextIndex() *index {
	for {
		if nx := ix.next.Load(); nx != nil {
			return nx
		}
		runtime.Gosched()
	}
}

// redirect resolves the index an operation on bin b must run against:
// it waits out an in-flight bin transfer and follows the next pointer when
// the bin has already moved. Returns nil if the operation may proceed on ix.
func (ix *index) redirect(b uint64, hdr uint64) *index {
	switch binState(hdr) {
	case binNoTransfer:
		return nil
	case binInTransfer:
		ix.waitBinTransferred(b)
		return ix.nextIndex()
	default: // binDoneTransfer
		return ix.nextIndex()
	}
}

// The mutating bodies below — Insert, Delete, Put — are one algorithm for
// both modes. A fixed op passes kv == nil; an Allocator-mode op passes its
// kvOp and the key word (inlineKeyWord) as key. The kvOp selects the slot
// match (scanAt), the bin a redirect recomputes (binAt) and the block the
// new pair lives in (kvSlotVal).

// scanAt is the bodies' slot match: scanBin for a fixed op, scanBinKV for
// a KV op, whose Valid-only scan never sees a Shadow slot or the op's own
// TryInsert slot. A KV op with kv.old set matches only the pair whose
// block that is: another pair of the key reads as a miss.
func (t *Table) scanAt(ix *index, b, hdr, key uint64, kv *kvOp, skipSlot int, includeShadow bool) (int, uint64, uint64) {
	if kv == nil {
		return ix.scanBin(b, hdr, key, skipSlot, includeShadow)
	}
	slot, v := t.scanBinKV(ix, b, hdr, key, kv.code, kv.ns, kv.key)
	if slot >= 0 && !kv.old.IsNil() && refOf(v) != kv.old {
		return scanMiss, 0, 0
	}
	return slot, v, slotValid
}

// binAt is key's bin in ix: binFor for a fixed op, the KV op's hash
// otherwise.
func (t *Table) binAt(ix *index, key uint64, kv *kvOp) uint64 {
	if kv == nil {
		return t.binFor(ix, key)
	}
	return ix.binOf(kv.hash)
}

// ---------------------------------------------------------------------------
// The op gate
// ---------------------------------------------------------------------------

// opErr is the one gate every fixed op (Get, Put, Insert, InsertShadow,
// Delete, CommitShadow) passes before its body runs, on every path: the
// sync Handle ops, Exec, Pipeline and the local Store. It returns the
// refusal the op earns on this table, or nil:
//   - ErrWrongMode for any fixed op on an Allocator-mode table — the KV
//     surface is that mode's API, and its slot words are block references:
//     an inlined write would plant a bogus reference for a later delete to
//     free, and an inlined read would leak the encoded word;
//   - ErrWrongMode for a Put outside Inlined mode;
//   - ErrReservedKey for an Insert or InsertShadow of a transfer key.
//
// Callers without an error result map the refusal onto their contract: a
// sync Get, Delete or CommitShadow reads it as a miss, a sync Put panics.
// Callers pass a kind they know, so the inlined gate folds to the checks
// that kind needs: on a Get, one mode compare.
func (t *Table) opErr(kind OpKind, key uint64) error {
	switch {
	case t.cfg.Mode == Allocator:
		return ErrWrongMode
	case kind == OpPut && t.cfg.Mode != Inlined:
		return ErrWrongMode
	case (kind == OpInsert || kind == OpInsertShadow) && isReserved(key):
		return ErrReservedKey
	}
	return nil
}

// ---------------------------------------------------------------------------
// Get (§3.2.1)
// ---------------------------------------------------------------------------

// Get returns the value stored under key in Inlined mode, or reports
// whether the key exists in HashSet mode (the value is then 0). It is
// lock-free and in the common case costs a single memory access. A Get the
// op gate refuses (any fixed op on an Allocator-mode table) reads as a miss.
func (h *Handle) Get(key uint64) (uint64, bool) {
	t := h.t
	if t.opErr(OpGet, key) != nil {
		return 0, false
	}
	ix := h.enter()
	if t.cfg.SingleThread {
		return h.stGetAt(ix, key, t.binFor(ix, key))
	}
	return t.getInAt(ix, key, t.binFor(ix, key))
}

// Contains reports whether key is present (HashSet-friendly spelling).
func (h *Handle) Contains(key uint64) bool {
	_, ok := h.Get(key)
	return ok
}

// getInAt is the concurrent Get body against bin b of ix: the sync op
// computes b itself, the batch engine memoizes it during the prefetch
// stage. A resize redirect invalidates b: the op recomputes it against the
// successor index. Every *At body follows the same rule.
//
// The common case reads straight from the bin's line, which the pipeline's
// prefetch already brought in: a NoTransfer bin whose primary bucket holds
// the key in a Valid slot returns that slot's value once the header reads
// unchanged — scanBin's own protocol and seqlock re-check, without its
// calls. Anything else (a key in a link bucket, a transfer, a header that
// moved, a miss) runs the loop below.
func (t *Table) getInAt(ix *index, key uint64, b uint64) (uint64, bool) {
	hdrAddr := ix.headerAddr(b)
	if hdr := atomic.LoadUint64(hdrAddr); binState(hdr) == binNoTransfer {
		bkt := (*[wordsPerBucket]uint64)(unsafe.Pointer(hdrAddr))
		for i := 0; i < primarySlots; i++ {
			if slotState(hdr, i) == slotValid && atomic.LoadUint64(&bkt[2+2*i]) == key {
				v := atomic.LoadUint64(&bkt[3+2*i])
				if atomic.LoadUint64(hdrAddr) == hdr {
					return v, true
				}
				break
			}
		}
	}
	for {
		hdr := atomic.LoadUint64(ix.headerAddr(b))
		if nx := ix.redirect(b, hdr); nx != nil {
			ix = nx
			b = t.binFor(ix, key)
			continue
		}
		slot, v, _ := ix.scanBin(b, hdr, key, -1, false)
		switch slot {
		case scanRetry:
			continue
		case scanMiss:
			return 0, false
		default:
			return v, true
		}
	}
}

// ---------------------------------------------------------------------------
// Insert (§3.2.2)
// ---------------------------------------------------------------------------

// Insert adds key→val. It returns (0, nil) on success; (existing, ErrExists)
// when the key is already present; (0, ErrShadow) when the key is locked by
// an uncommitted shadow insert; (0, ErrFull) when the index is full and the
// table is not resizable; and the op gate's refusal — ErrReservedKey for a
// transfer key, ErrWrongMode on an Allocator-mode table — otherwise.
// In HashSet mode val is ignored.
func (h *Handle) Insert(key, val uint64) (uint64, error) {
	t := h.t
	if err := t.opErr(OpInsert, key); err != nil {
		return 0, err
	}
	if t.cfg.SingleThread {
		ix := t.current.Load()
		return h.stInsertAt(ix, key, val, slotValid, t.binFor(ix, key))
	}
	t.beginUpdate()
	ix := h.enter()
	v, err := t.insertInAt(h, ix, key, val, slotValid, t.binFor(ix, key), nil)
	t.endUpdate()
	return v, err
}

// InsertShadow performs the transactional shadow Insert of §3.2.2: the key
// is inserted but remains hidden from Gets, Puts and Deletes until
// CommitShadow is called. A shadow insert acts as an exclusive lock on the
// key: concurrent Inserts of the same key fail with ErrShadow. Results and
// refusals are Insert's.
func (h *Handle) InsertShadow(key, val uint64) (uint64, error) {
	t := h.t
	if err := t.opErr(OpInsertShadow, key); err != nil {
		return 0, err
	}
	if t.cfg.SingleThread {
		ix := t.current.Load()
		return h.stInsertAt(ix, key, val, slotShadow, t.binFor(ix, key))
	}
	t.beginUpdate()
	ix := h.enter()
	v, err := t.insertInAt(h, ix, key, val, slotShadow, t.binFor(ix, key), nil)
	t.endUpdate()
	return v, err
}

// CommitShadow finishes a shadow insert: commit=true publishes the key
// (state→Valid), commit=false aborts it (state→Invalid, slot reclaimed).
// Returns false if no shadow entry for key exists, or the op gate refuses.
func (h *Handle) CommitShadow(key uint64, commit bool) bool {
	t := h.t
	if t.opErr(OpCommitShadow, key) != nil {
		return false
	}
	if t.cfg.SingleThread {
		ix := t.current.Load()
		return h.stCommitShadowAt(ix, key, commit, t.binFor(ix, key))
	}
	t.beginUpdate()
	ix := h.enter()
	ok := h.commitShadowInAt(ix, key, commit, t.binFor(ix, key))
	t.endUpdate()
	return ok
}

// insertInAt is the concurrent Insert body; like every mutating *At body
// its callers bracket it with beginUpdate/endUpdate. A KV insert's val is
// ignored: the slot is filled with a reference to kv's block, which the
// caller frees if the insert fails.
func (t *Table) insertInAt(h *Handle, ix *index, key, val uint64, finalState uint64, b uint64, kv *kvOp) (uint64, error) {
	for {
		hdrAddr := ix.headerAddr(b)
		hdr := atomic.LoadUint64(hdrAddr)
		if nx := ix.redirect(b, hdr); nx != nil {
			ix = nx
			b = t.binAt(ix, key, kv)
			continue
		}
		// Step 2: Get phase — the key must not already exist.
		slot, v, st := t.scanAt(ix, b, hdr, key, kv, -1, true)
		if slot == scanRetry {
			continue
		}
		if slot >= 0 {
			if st == slotShadow {
				return 0, ErrShadow
			}
			return v, ErrExists
		}
		// Step 3: pick the first Invalid slot (chaining on demand).
		i := firstInvalidSlot(hdr, slotsPerBin)
		if i < 0 {
			nx, err := t.resizeOrFail(h, ix)
			if err != nil {
				return 0, err
			}
			ix = nx
			b = t.binAt(ix, key, kv)
			continue
		}
		// Step 4: claim the slot via header CAS.
		if !atomic.CompareAndSwapUint64(hdrAddr, hdr, bumpVersion(withSlotState(hdr, i, slotTryInsert))) {
			continue
		}
		// Chain a link bucket if the claimed slot needs one (§3.2.2
		// "Chaining buckets").
		meta := atomic.LoadUint64(ix.linkMetaAddr(b))
		if need, field := slotNeedsChain(meta, i); need {
			newMeta, ok := t.chainBucket(ix, b, field)
			if !ok {
				t.releaseSlot(ix, b, i)
				nx, err := t.resizeOrFail(h, ix)
				if err != nil {
					return 0, err
				}
				ix = nx
				b = t.binAt(ix, key, kv)
				continue
			}
			meta = newMeta
		}
		// Step 4.1: fill the slot while it is invisible. A KV insert
		// allocates its block here, now that the slot is claimed
		// ("the Insert algorithm allocates memory in step 4.1"), once:
		// a retry reuses it.
		if kv != nil {
			val = t.kvSlotVal(kv)
		}
		ix.storeSlot(b, meta, i, key, val)
		// Step 5: publish via a second header CAS.
		v, err, done := t.finalizeInsert(ix, b, i, key, finalState, kv)
		if done {
			return v, err
		}
		// Bin was caught by a transfer mid-insert: retry in the next
		// index; the abandoned TryInsert slot dies with the old index.
		ix = ix.nextIndex()
		b = t.binAt(ix, key, kv)
	}
}

// finalizeInsert performs step 5 of the Insert algorithm: transition slot i
// from TryInsert to finalState. On a lost race with another insert of the
// same key it releases the claimed slot and reports ErrExists/ErrShadow.
// done=false means the bin entered a transfer and the caller must redo the
// insert in the next index.
func (t *Table) finalizeInsert(ix *index, b uint64, i int, key uint64, finalState uint64, kv *kvOp) (uint64, error, bool) {
	hdrAddr := ix.headerAddr(b)
	for {
		hdr := atomic.LoadUint64(hdrAddr)
		if binState(hdr) != binNoTransfer {
			if binState(hdr) == binInTransfer {
				ix.waitBinTransferred(b)
			}
			return 0, nil, false
		}
		// Re-run the Get phase excluding our own slot: a concurrent insert
		// of the same key may have published first.
		slot, v, st := t.scanAt(ix, b, hdr, key, kv, i, true)
		if slot == scanRetry {
			continue
		}
		if slot >= 0 {
			t.releaseSlot(ix, b, i)
			if st == slotShadow {
				return 0, ErrShadow, true
			}
			return v, ErrExists, true
		}
		if atomic.CompareAndSwapUint64(hdrAddr, hdr, bumpVersion(withSlotState(hdr, i, finalState))) {
			if finalState == slotValid {
				// Shadow inserts bump at commit, not at staging.
				t.bumpVer(key)
			}
			return 0, nil, true
		}
	}
}

// releaseSlot returns a TryInsert slot to Invalid (abandoned claim).
func (t *Table) releaseSlot(ix *index, b uint64, i int) {
	hdrAddr := ix.headerAddr(b)
	for {
		hdr := atomic.LoadUint64(hdrAddr)
		if atomic.CompareAndSwapUint64(hdrAddr, hdr, bumpVersion(withSlotState(hdr, i, slotInvalid))) {
			return
		}
	}
}

// chainBucket links a bucket (field 1: single, field 2: consecutive pair)
// into bin b, racing other inserts on the link-metadata word. Returns the
// resulting metadata and false when the link array is exhausted.
func (t *Table) chainBucket(ix *index, b uint64, field int) (uint64, bool) {
	metaAddr := ix.linkMetaAddr(b)
	for {
		meta := atomic.LoadUint64(metaAddr)
		if field == 1 {
			if linkOne(meta) != 0 {
				return meta, true
			}
			idx := ix.allocLinkSingle()
			if idx == 0 {
				return meta, false
			}
			next := withLinkOne(meta, idx)
			if atomic.CompareAndSwapUint64(metaAddr, meta, next) {
				return next, true
			}
			ix.recycleLinkSingle(idx)
		} else {
			if linkTwo(meta) != 0 {
				return meta, true
			}
			idx := ix.allocLinkPair()
			if idx == 0 {
				return meta, false
			}
			next := withLinkTwo(meta, idx)
			if atomic.CompareAndSwapUint64(metaAddr, meta, next) {
				return next, true
			}
			ix.recycleLinkPair(idx)
		}
	}
}

// ---------------------------------------------------------------------------
// Delete (§3.2.3)
// ---------------------------------------------------------------------------

// Delete removes key, returning its value and true if it was present. The
// slot is reclaimed instantly — the headline advantage over open-addressing
// tombstones. A Delete the op gate refuses reads as a miss.
func (h *Handle) Delete(key uint64) (uint64, bool) {
	t := h.t
	if t.opErr(OpDelete, key) != nil {
		return 0, false
	}
	if t.cfg.SingleThread {
		ix := t.current.Load()
		return h.stDeleteAt(ix, key, t.binFor(ix, key))
	}
	t.beginUpdate()
	ix := h.enter()
	v, ok := t.deleteInAt(h, ix, key, t.binFor(ix, key), nil)
	t.endUpdate()
	return v, ok
}

// deleteInAt is the concurrent Delete body. A KV delete commits by
// claiming the slot (claimKV) and retires the pair's block through
// afterDelete.
func (t *Table) deleteInAt(h *Handle, ix *index, key uint64, b uint64, kv *kvOp) (uint64, bool) {
	for {
		hdrAddr := ix.headerAddr(b)
		hdr := atomic.LoadUint64(hdrAddr)
		if nx := ix.redirect(b, hdr); nx != nil {
			ix = nx
			b = t.binAt(ix, key, kv)
			continue
		}
		slot, v, _ := t.scanAt(ix, b, hdr, key, kv, -1, false)
		if slot == scanRetry {
			continue
		}
		if slot == scanMiss {
			return 0, false
		}
		if kv != nil {
			if !ix.claimKV(b, slot, key, v) {
				continue
			}
			t.afterDelete(h, v)
			return v, true
		}
		// CAS against the header we scanned under: any concurrent
		// change to the bin (including the slot being deleted and
		// reused) bumps the version and fails this CAS.
		if atomic.CompareAndSwapUint64(hdrAddr, hdr, bumpVersion(withSlotState(hdr, slot, slotInvalid))) {
			t.bumpVer(key)
			t.afterDelete(h, v)
			return v, true
		}
	}
}

// claimKV is a KV delete's commit point. One double-word CAS takes the
// pair out of slot i of bin b, from (key word, vw) to (key word, 0) — a
// value word whose size code matches no key, so every lookup reads the
// slot as empty — and only then is the slot invalidated in the header.
// A pair changes hands only through its slot's words, and whoever swaps
// a block reference out retires it: a delete and a replace of the same
// pair cannot both win, where a header CAS alone left the words in place
// for a replace that scanned first. The header CAS retries on a version
// change; a transfer that got to the bin first drops the claimed slot
// itself. It reports false when the slot no longer held the pair.
func (ix *index) claimKV(b uint64, i int, kw, vw uint64) bool {
	if !dwcas(ix.slotKeyWord(b, atomic.LoadUint64(ix.linkMetaAddr(b)), i), kw, vw, kw, 0) {
		return false
	}
	hdrAddr := ix.headerAddr(b)
	for {
		hdr := atomic.LoadUint64(hdrAddr)
		if binState(hdr) != binNoTransfer || atomic.CompareAndSwapUint64(hdrAddr, hdr, bumpVersion(withSlotState(hdr, i, slotInvalid))) {
			return true
		}
	}
}

// afterDelete releases allocator-mode out-of-line storage, immediately or
// through the epoch GC (§3.2.3).
func (t *Table) afterDelete(h *Handle, val uint64) {
	if t.cfg.Mode != Allocator {
		return
	}
	ref := refOf(val)
	if ref.IsNil() {
		return
	}
	if h != nil && h.eh != nil {
		h.eh.Retire(uint64(ref))
		return
	}
	t.cfg.Alloc.Free(ref)
}

// ---------------------------------------------------------------------------
// Put (§3.2.4)
// ---------------------------------------------------------------------------

// Put overwrites the value of an existing key with a double-word CAS on the
// slot, returning the previous value and true. It returns (0, false) when
// the key does not exist. Inlined mode only: elsewhere Put panics with the
// op gate's ErrWrongMode (API misuse).
func (h *Handle) Put(key, val uint64) (uint64, bool) {
	t := h.t
	if err := t.opErr(OpPut, key); err != nil {
		panic(err)
	}
	if t.cfg.SingleThread {
		ix := t.current.Load()
		return h.stPutAt(ix, key, val, t.binFor(ix, key))
	}
	t.beginUpdate()
	ix := h.enter()
	old, ok := t.putInAt(h, ix, key, val, t.binFor(ix, key), nil)
	t.endUpdate()
	return old, ok
}

// putInAt is the concurrent Put body. A KV put — the replace of an
// Allocator-mode pair — ignores val: it publishes a reference to kv's
// block, allocated before the first CAS and reused by a retry (the caller
// frees it on a miss), and retires the old block.
func (t *Table) putInAt(h *Handle, ix *index, key, val uint64, b uint64, kv *kvOp) (uint64, bool) {
	for {
		hdrAddr := ix.headerAddr(b)
		hdr := atomic.LoadUint64(hdrAddr)
		if nx := ix.redirect(b, hdr); nx != nil {
			ix = nx
			b = t.binAt(ix, key, kv)
			continue
		}
		slot, v, _ := t.scanAt(ix, b, hdr, key, kv, -1, false)
		if slot == scanRetry {
			continue
		}
		if slot == scanMiss {
			return 0, false
		}
		if kv != nil {
			val = t.kvSlotVal(kv)
		}
		// §3.2.4: Puts do not re-read or CAS the header — only the
		// double-word CAS on the slot. A slot recycled to another key,
		// or claimed by the resize transfer (its key word becomes a
		// transfer key), or a KV slot claimed by a delete (its value
		// word becomes 0), makes this CAS fail and the Put retries. A KV
		// slot's value word holds its block reference, which cannot
		// recur in the slot for another pair while this op runs: the
		// block is freed only once swapped out, and then reused only
		// after this handle's next AdvanceEpoch. Without EpochGC it is
		// freed at once, and the caller serializes deletes of the key
		// against its replacers (UpsertKVHashed).
		meta := atomic.LoadUint64(ix.linkMetaAddr(b))
		kw := ix.slotKeyWord(b, meta, slot)
		if dwcas(kw, key, v, key, val) {
			t.bumpVer(key)
			if kv != nil {
				// A scan may have read the old reference under the
				// current header; bump it so the scan fails validation
				// before the block can be reused, then retire it.
				ix.bumpBin(b)
				t.afterDelete(h, v)
			}
			return v, true
		}
	}
}

// bumpBin advances bin b's header version, keeping its state.
func (ix *index) bumpBin(b uint64) {
	hdrAddr := ix.headerAddr(b)
	for {
		hdr := atomic.LoadUint64(hdrAddr)
		if atomic.CompareAndSwapUint64(hdrAddr, hdr, bumpVersion(hdr)) {
			return
		}
	}
}
