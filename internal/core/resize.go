package core

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"

	"repro/internal/cpuops"
)

// dwcas performs the paper's double-word CAS on a 16-byte slot.
func dwcas(kw *uint64, oldKey, oldVal, newKey, newVal uint64) bool {
	return cpuops.CompareAndSwap128(slotPair(kw), oldKey, oldVal, newKey, newVal)
}

// growthFactor implements §3.2.5: ×8 for small indexes (<4K bins), ×4 for
// medium (<64M bins), ×2 beyond.
func growthFactor(bins uint64) uint64 {
	switch {
	case bins < 4<<10:
		return 8
	case bins < 64<<20:
		return 4
	default:
		return 2
	}
}

// resizeOrFail either joins/starts a resize of ix and returns the successor
// index, or reports ErrFull when resizing is disabled.
func (t *Table) resizeOrFail(h *Handle, ix *index) (*index, error) {
	if !t.cfg.Resizable {
		return nil, ErrFull
	}
	return t.resize(h, ix), nil
}

// resize runs the §3.2.5 protocol from the perspective of a thread whose
// Insert could not find room in ix:
//
//  1. One thread wins the CAS and becomes the resizer: it allocates the new
//     index and publishes it. Everyone else becomes a helper.
//  2. Resizer and helpers claim 16K-bin chunks by fetch-and-add and
//     transfer them until none remain.
//  3. All participants wait for the transfer to complete, then retry their
//     Insert in the new index (the caller does the retry).
//
// The paper's resizer then frees the old index once no thread's
// announcement points at it. This port has no such step, and threads
// publish nothing: the index is GC-owned memory, and the Go runtime
// reclaims it once the table's pointer has moved on and no op or
// in-flight pipeline entry still holds it (see Handle.enter).
func (t *Table) resize(h *Handle, ix *index) *index {
	if ix.allocating.CompareAndSwap(false, true) {
		ix.next.Store(newIndex(ix.numBins*growthFactor(ix.numBins), t.cfg.LinkRatio, t.cfg.ChunkBins))
	} else {
		t.resizeHelpers.Add(1)
	}
	nx := ix.nextIndex()
	t.helpTransfer(h, ix, nx)
	for ix.chunksDone.Load() < ix.numChunks {
		runtime.Gosched()
	}
	if t.current.CompareAndSwap(ix, nx) {
		t.resizes.Add(1)
	}
	return nx
}

// helpTransfer claims and transfers chunks until the cursor runs out. The
// table-wide counters take one add per chunk, not per bin, so helpers
// moving neighbouring chunks do not take turns writing their shared line.
func (t *Table) helpTransfer(h *Handle, ix, nx *index) {
	for {
		c := ix.chunkCursor.Add(1) - 1
		if c >= ix.numChunks {
			return
		}
		start := c * ix.chunkBins
		end := start + ix.chunkBins
		if end > ix.numBins {
			end = ix.numBins
		}
		moved := uint64(0)
		for b := start; b < end; b++ {
			moved += t.transferBin(h, ix, nx, b)
		}
		if moved != 0 {
			t.keysMoved.Add(moved)
		}
		ix.chunksDone.Add(1)
		t.chunksMoved.Add(1)
	}
}

// transferBin migrates one bin: block it (InTransfer), hand each live slot
// off with a double-word CAS that plants the transfer key, re-insert the
// pair in the new index, then mark the bin DoneTransfer. It returns how
// many pairs it moved.
func (t *Table) transferBin(h *Handle, ix, nx *index, b uint64) uint64 {
	hdrAddr := ix.headerAddr(b)
	var hdr uint64
	for {
		hdr = atomic.LoadUint64(hdrAddr)
		next := bumpVersion(withBinState(hdr, binInTransfer))
		if atomic.CompareAndSwapUint64(hdrAddr, hdr, next) {
			hdr = next
			break
		}
	}
	meta := atomic.LoadUint64(ix.linkMetaAddr(b))
	limit := slotLimit(meta)
	tk := transferKeyFor(b)
	moved := uint64(0)
	for i := 0; i < limit; i++ {
		st := slotState(hdr, i)
		// Shadow entries are live locks held by in-flight transactions and
		// must survive the migration with their state intact.
		if st != slotValid && st != slotShadow {
			continue
		}
		kw := ix.slotKeyWord(b, meta, i)
		pair := slotPair(kw)
		for {
			k := atomic.LoadUint64(&pair[0])
			v := atomic.LoadUint64(&pair[1])
			// Inserts and Deletes are excluded by InTransfer, so only a
			// racing Put or KV delete claim can change the slot, and only
			// its value word; the
			// dw-CAS retry loop captures a stable (key, value) pair while
			// planting the transfer key that will defeat later Puts. A KV
			// slot a delete has claimed (nil block reference) is dropped:
			// the delete is done with it.
			if dwcas(kw, k, v, tk, v) {
				if t.cfg.Mode != Allocator || !refOf(v).IsNil() {
					t.insertMigrated(h, nx, k, v, st)
					moved++
				}
				break
			}
		}
	}
	for {
		cur := atomic.LoadUint64(hdrAddr)
		if atomic.CompareAndSwapUint64(hdrAddr, cur, bumpVersion(withBinState(cur, binDoneTransfer))) {
			break
		}
	}
	if debugAsserts {
		t.assertBinChain(ix, b)
	}
	return moved
}

// insertMigrated re-inserts a migrated slot (raw key and value words, with
// its original Valid/Shadow state) into the successor index. It is the
// Insert algorithm minus the Get phase: keys are unique while a migration
// is in flight, and in Allocator mode the key word is only a filter whose
// collisions would confuse an existence check. The destination bin a
// migrated key lands in may itself be under a nested migration, in which
// case the insert follows the chain.
func (t *Table) insertMigrated(h *Handle, ix *index, keyWord, valWord uint64, state uint64) {
	bin := func(ix *index) uint64 {
		if t.cfg.Mode == Allocator {
			// Re-derive the bin from the stored key material. For inlined
			// (≤8 B) keys the key word is the key itself; big keys must be
			// re-read from their block.
			return t.binForMigratedKV(ix, keyWord, valWord)
		}
		return t.binFor(ix, keyWord)
	}
indexLoop:
	for {
		b := bin(ix)
		for {
			hdrAddr := ix.headerAddr(b)
			hdr := atomic.LoadUint64(hdrAddr)
			if nx := ix.redirect(b, hdr); nx != nil {
				ix = nx
				continue indexLoop
			}
			i := firstInvalidSlot(hdr, slotsPerBin)
			if i < 0 {
				nx, err := t.resizeOrFail(h, ix)
				if err != nil {
					// Migration into a non-resizable table cannot happen:
					// migrations only exist when resizing is enabled.
					panic("dlht: migrated insert hit a full non-resizable index")
				}
				ix = nx
				continue indexLoop
			}
			if !atomic.CompareAndSwapUint64(hdrAddr, hdr, bumpVersion(withSlotState(hdr, i, slotTryInsert))) {
				continue
			}
			meta := atomic.LoadUint64(ix.linkMetaAddr(b))
			if need, field := slotNeedsChain(meta, i); need {
				newMeta, ok := t.chainBucket(ix, b, field)
				if !ok {
					t.releaseSlot(ix, b, i)
					nx, _ := t.resizeOrFail(h, ix)
					ix = nx
					continue indexLoop
				}
				meta = newMeta
			}
			ix.storeSlot(b, meta, i, keyWord, valWord)
			for {
				hdr2 := atomic.LoadUint64(hdrAddr)
				if binState(hdr2) != binNoTransfer {
					if binState(hdr2) == binInTransfer {
						ix.waitBinTransferred(b)
					}
					ix = ix.nextIndex()
					continue indexLoop
				}
				if atomic.CompareAndSwapUint64(hdrAddr, hdr2, bumpVersion(withSlotState(hdr2, i, state))) {
					if debugAsserts {
						t.assertBinChain(ix, b)
					}
					return
				}
			}
		}
	}
}

// binForMigratedKV recomputes the destination bin of an Allocator-mode slot
// from its stored words: namespace from the value word, key bytes either
// from the key word (inlined) or from the block (big keys), which the
// bin's transfer keeps live.
func (t *Table) binForMigratedKV(ix *index, keyWord, valWord uint64) uint64 {
	code := keyCodeOf(valWord)
	if code == bigKeyCode {
		key, _, _, _ := t.pairBlock(valWord)
		return t.binForKV(ix, key, nsOf(valWord))
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], keyWord)
	return t.binForKV(ix, buf[:code], nsOf(valWord))
}
