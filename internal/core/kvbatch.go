package core

import (
	"sync/atomic"
)

// Allocator-mode batching (§3.3): GetKVBatch runs its own window loop on
// the handle's kvPipe engine (kvpipeline.go), the one that backs the
// streaming KVPipeline, with the same three touches per lookup: the
// bin prefetch a full window ahead of completion, the candidate pick from
// the slot words (which prefetches every line of the candidate's
// out-of-line block that completion reads) half a window ahead, and at
// completion the one visit to the block — verify the key, read the
// metadata word, form the value view — once it is cached. Each request is
// copied into its ring entry at issue and back into the caller's slice at
// completion. Request order is preserved in the results.

// KVGet is one request of a GetKVBatch (or a streaming KVPipeline).
type KVGet struct {
	NS  uint16
	Key []byte

	// Value is the pointer-API view of the value (nil when not found).
	// The same lifetime rules as GetKV apply. Meta is the pair's metadata
	// word (see Handle.GetKVMeta), read with the view.
	Value []byte
	Meta  uint64
	OK    bool
}

// GetKVBatch performs a batch of Allocator-mode lookups with two-level
// sliding-window software prefetching (index bins, then value blocks).
//
// For issuing lookups incrementally with per-request completions, see
// Handle.KVPipeline.
func (h *Handle) GetKVBatch(reqs []KVGet) {
	t := h.t
	if t.cfg.Mode != Allocator {
		panic(ErrWrongMode)
	}
	ix := h.enter()

	w := t.prefetchWindow(len(reqs))
	lead := kvLead(w)
	p := &h.kvp
	p.reset(w)
	for i := range reqs {
		p.issue(ix, reqs[i].NS, reqs[i].Key, t.HashOfKV(reqs[i].NS, reqs[i].Key))
		p.advance(t, w, lead)
		if p.head-p.tail > w {
			reqs[p.tail] = *h.kvStep(p)
			p.tail++
		}
	}
	for p.head > p.tail {
		p.advance(t, w, lead)
		reqs[p.tail] = *h.kvStep(p)
		p.tail++
	}
	clear(p.ents[:min(p.head, len(p.ents))]) // an idle handle must not pin the caller's keys or values
}

// lookupKVSlotAt runs the Get algorithm from bin b of ix with the key word
// and key code precomputed (memoized by the pipeline engine's prefetch
// stage) and returns the slot's value word together with the bin header it
// was read under: its address and the validated value. A resize redirect
// invalidates the bin, which is recomputed against the successor index; the
// key word and code are index-independent and stay valid. With verify
// false a big key matches on its slot words alone: the result is a
// candidate whose block the caller compares — and whose header it
// re-validates — later (kvStep).
func (t *Table) lookupKVSlotAt(ix *index, ns uint16, key []byte, wantKW uint64, wantCode int, b uint64, verify bool) (vw uint64, at *uint64, hdr uint64, ok bool) {
	match := key
	if !verify {
		match = nil
	}
	for {
		at = ix.headerAddr(b)
		hdr = atomic.LoadUint64(at)
		if nx := ix.redirect(b, hdr); nx != nil {
			ix = nx
			b = t.binForKV(ix, key, ns)
			continue
		}
		slot, vw := t.scanBinKV(ix, b, hdr, wantKW, wantCode, ns, match)
		if slot == scanRetry {
			continue
		}
		return vw, at, hdr, slot != scanMiss
	}
}
