//go:build dlhtdebug

package core

import "sync/atomic"

// The dlhtdebug assertion layer: invariants the static passes
// (internal/analyzers) cannot see into, checked at runtime in debug
// builds and compiled out everywhere else. Call sites gate on the
// debugAsserts constant so release builds dead-code-eliminate them;
// CI runs the full suite under `go test -race -tags dlhtdebug ./...`.
const debugAsserts = true

// assertViewPinned panics when a KV value view is materialized without
// the epoch pin that keeps its block from being reclaimed under the
// reader. Only EpochGC tables are checked; without EpochGC views are
// protected by the table's no-reclaim contract instead.
func (h *Handle) assertViewPinned() {
	if h.eh != nil && !h.pinned {
		panic("dlhtdebug: KV value view materialized without an epoch pin")
	}
}

// assertBinChain panics when bin b's chain metadata is inconsistent: a
// link index out of the index's range, or a live slot beyond the
// chained slot limit. hdr is loaded before meta — writers publish the
// chain meta before marking a chained slot live, so a live slot seen
// in hdr implies the meta loaded after it is at least as new; loading
// in the other order would race a concurrent chain grow into a false
// positive.
func (t *Table) assertBinChain(ix *index, b uint64) {
	hdr := atomic.LoadUint64(ix.headerAddr(b))
	meta := atomic.LoadUint64(ix.linkMetaAddr(b))
	if l1 := uint64(linkOne(meta)); l1 > ix.numLinks {
		panic("dlhtdebug: bin linkOne index out of range")
	}
	if l2 := uint64(linkTwo(meta)); l2 != 0 && l2+1 > ix.numLinks {
		panic("dlhtdebug: bin linkTwo pair out of range")
	}
	limit := slotLimit(meta)
	for i := limit; i < slotsPerBin; i++ {
		if st := slotState(hdr, i); st == slotValid || st == slotShadow {
			panic("dlhtdebug: live slot beyond the bin's chained slot limit")
		}
	}
}
