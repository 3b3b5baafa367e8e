package core

// Single-thread mode (§3.4.5): when Config.SingleThread is set the table
// strips its three thread-safety overheads — lock-free CAS protocols become
// plain stores, atomic loads/stores become plain accesses, and the
// enter/leave index notifications disappear. The paper reports 31–91 %
// gains on InsDel-style workloads from exactly these removals.
//
// The structure and algorithms are deliberately identical to the concurrent
// path (the paper found specialized single-threaded algorithms gained
// nothing); only the memory operations are downgraded. These are the op
// bodies only, each taking the key's bin b within ix: the sync Handle ops
// and execOneAt pass the op gate, compute or memoize b, and call them; a
// bin that has been migrated (DoneTransfer) is recomputed against the next
// index.

func (h *Handle) stGetAt(ix *index, key uint64, b uint64) (uint64, bool) {
	t := h.t
	for {
		hdr := *ix.headerAddr(b)
		if binState(hdr) == binDoneTransfer {
			ix = ix.next.Load()
			b = t.binFor(ix, key)
			continue
		}
		meta := *ix.linkMetaAddr(b)
		limit := slotLimit(meta)
		for i := 0; i < limit; i++ {
			if slotState(hdr, i) != slotValid {
				continue
			}
			kw := ix.slotKeyWord(b, meta, i)
			p := slotPair(kw)
			if p[0] == key {
				return p[1], true
			}
		}
		return 0, false
	}
}

func (h *Handle) stInsertAt(ix *index, key, val uint64, finalState uint64, b uint64) (uint64, error) {
	t := h.t
	for {
		hdr := *ix.headerAddr(b)
		if binState(hdr) == binDoneTransfer {
			ix = ix.next.Load()
			b = t.binFor(ix, key)
			continue
		}
		meta := *ix.linkMetaAddr(b)
		limit := slotLimit(meta)
		for i := 0; i < limit; i++ {
			s := slotState(hdr, i)
			if s != slotValid && s != slotShadow {
				continue
			}
			kw := ix.slotKeyWord(b, meta, i)
			p := slotPair(kw)
			if p[0] == key {
				if s == slotShadow {
					return 0, ErrShadow
				}
				return p[1], ErrExists
			}
		}
		i := firstInvalidSlot(hdr, slotsPerBin)
		if i < 0 {
			nx, err := t.resizeOrFail(h, ix)
			if err != nil {
				return 0, err
			}
			ix = nx
			b = t.binFor(ix, key)
			continue
		}
		if need, field := slotNeedsChain(meta, i); need {
			newMeta, ok := t.stChain(ix, b, field)
			if !ok {
				nx, err := t.resizeOrFail(h, ix)
				if err != nil {
					return 0, err
				}
				ix = nx
				b = t.binFor(ix, key)
				continue
			}
			meta = newMeta
		}
		kw := ix.slotKeyWord(b, meta, i)
		p := slotPair(kw)
		p[0], p[1] = key, val
		// Both CASes of the concurrent Insert collapse into one store.
		*ix.headerAddr(b) = bumpVersion(withSlotState(hdr, i, finalState))
		if finalState == slotValid {
			t.bumpVer(key)
		}
		return 0, nil
	}
}

func (t *Table) stChain(ix *index, b uint64, field int) (uint64, bool) {
	metaAddr := ix.linkMetaAddr(b)
	meta := *metaAddr
	if field == 1 {
		n := ix.nextLink.Load()
		if n > ix.numLinks {
			return meta, false
		}
		ix.nextLink.Store(n + 1)
		meta = withLinkOne(meta, uint32(n))
	} else {
		n := ix.nextLink.Load()
		if n+1 > ix.numLinks {
			return meta, false
		}
		ix.nextLink.Store(n + 2)
		meta = withLinkTwo(meta, uint32(n))
	}
	*metaAddr = meta
	return meta, true
}

func (h *Handle) stDeleteAt(ix *index, key uint64, b uint64) (uint64, bool) {
	t := h.t
	for {
		hdrAddr := ix.headerAddr(b)
		hdr := *hdrAddr
		if binState(hdr) == binDoneTransfer {
			ix = ix.next.Load()
			b = t.binFor(ix, key)
			continue
		}
		meta := *ix.linkMetaAddr(b)
		limit := slotLimit(meta)
		for i := 0; i < limit; i++ {
			if slotState(hdr, i) != slotValid {
				continue
			}
			kw := ix.slotKeyWord(b, meta, i)
			p := slotPair(kw)
			if p[0] == key {
				*hdrAddr = bumpVersion(withSlotState(hdr, i, slotInvalid))
				t.bumpVer(key)
				t.afterDelete(h, p[1])
				return p[1], true
			}
		}
		return 0, false
	}
}

func (h *Handle) stPutAt(ix *index, key, val uint64, b uint64) (uint64, bool) {
	t := h.t
	for {
		hdr := *ix.headerAddr(b)
		if binState(hdr) == binDoneTransfer {
			ix = ix.next.Load()
			b = t.binFor(ix, key)
			continue
		}
		meta := *ix.linkMetaAddr(b)
		limit := slotLimit(meta)
		for i := 0; i < limit; i++ {
			if slotState(hdr, i) != slotValid {
				continue
			}
			kw := ix.slotKeyWord(b, meta, i)
			p := slotPair(kw)
			if p[0] == key {
				old := p[1]
				p[1] = val // the dw-CAS collapses into a plain store
				t.bumpVer(key)
				return old, true
			}
		}
		return 0, false
	}
}

func (h *Handle) stCommitShadowAt(ix *index, key uint64, commit bool, b uint64) bool {
	t := h.t
	for {
		hdrAddr := ix.headerAddr(b)
		hdr := *hdrAddr
		if binState(hdr) == binDoneTransfer {
			ix = ix.next.Load()
			b = t.binFor(ix, key)
			continue
		}
		meta := *ix.linkMetaAddr(b)
		limit := slotLimit(meta)
		for i := 0; i < limit; i++ {
			if slotState(hdr, i) != slotShadow {
				continue
			}
			kw := ix.slotKeyWord(b, meta, i)
			p := slotPair(kw)
			if p[0] == key {
				target := slotValid
				if !commit {
					target = slotInvalid
				}
				*hdrAddr = bumpVersion(withSlotState(hdr, i, target))
				if commit {
					t.bumpVer(key)
				}
				return true
			}
		}
		return false
	}
}
