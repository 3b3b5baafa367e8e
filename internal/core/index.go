package core

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/cpuops"
)

// wordsPerBucket is the 64-byte cache-line bucket expressed in 8-byte words.
const wordsPerBucket = 8

// Per-bucket word offsets in a primary bucket.
const (
	hdrWord  = 0 // bin header
	linkWord = 1 // link metadata
	// words 2..7: three 16-byte slots (key word, value word)
)

// index is one generation of the hashtable: the bin array, the link-bucket
// array, and the coordination state for migrating to the next generation.
// The Table swings an atomic pointer across index generations on resize.
type index struct {
	// bins holds numBins primary buckets, 8 words each, 64-byte aligned so
	// every bucket is one cache line and every slot is 16-byte aligned for
	// the double-word CAS.
	bins []uint64
	// links holds numLinks+2 link buckets (entry 0 burned so that link
	// index 0 can mean "not chained"; one extra tail bucket so a
	// double-bucket chain starting at the last index stays in bounds).
	links    []uint64
	numBins  uint64
	numLinks uint64
	// binMask is numBins-1. When numBins is a power of two (pow2), binOf
	// maps a hash with one AND instead of a 64-bit division.
	binMask uint64
	pow2    bool

	// nextLink is the bump allocator for link buckets; starts at 1.
	nextLink atomic.Uint64
	// freeSingles and freePairs recycle link buckets whose chaining CAS
	// lost a race. Treiber stacks: head packs a 16-bit ABA tag above the
	// 32-bit bucket index; each free bucket stores the previous head word
	// in its first word.
	freeSingles atomic.Uint64
	freePairs   atomic.Uint64

	// Resize coordination (§3.2.5). next is nil until a migration starts;
	// chunksDone reaching numChunks marks the index drained.
	allocating  atomic.Bool           // won by the one thread that allocates next
	next        atomic.Pointer[index] // the index being migrated into
	chunkCursor atomic.Uint64         // FAA ticket for transfer chunks
	chunksDone  atomic.Uint64         // completed chunk count
	numChunks   uint64
	chunkBins   uint64
}

// newIndex allocates an index with the given geometry. linkRatio is the
// bins-to-link-buckets ratio (8 by default per §3.1); chunkBins is the
// transfer chunk size (16K bins in the paper).
func newIndex(numBins uint64, linkRatio int, chunkBins uint64) *index {
	if numBins == 0 {
		numBins = 1
	}
	if linkRatio <= 0 {
		linkRatio = 8
	}
	numLinks := numBins / uint64(linkRatio)
	if numLinks < 3 {
		// A fully chained bin needs 3 link buckets; never allocate fewer.
		numLinks = 3
	}
	if chunkBins == 0 {
		chunkBins = 16384
	}
	ix := &index{
		bins:      cpuops.AlignedUint64s(int(numBins)*wordsPerBucket, 64),
		links:     cpuops.AlignedUint64s(int(numLinks+2)*wordsPerBucket, 64),
		numBins:   numBins,
		numLinks:  numLinks,
		binMask:   numBins - 1,
		pow2:      numBins&(numBins-1) == 0,
		chunkBins: chunkBins,
		numChunks: (numBins + chunkBins - 1) / chunkBins,
	}
	ix.nextLink.Store(1)
	return ix
}

// binOf maps a key hash to its bin of ix — the one bin mapping every op,
// pipeline and transfer uses. A power-of-two bin count maps with a mask
// (growth by ×8, ×4 or ×2 keeps a power of two one); any other count pays
// a 64-bit division. Both give hash % numBins, so bin numbers, a transfer's
// b + j·n children and a Cursor's resume arithmetic do not depend on which.
func (ix *index) binOf(hash uint64) uint64 {
	if ix.pow2 {
		return hash & ix.binMask
	}
	return hash % ix.numBins
}

// headerAddr returns the header word of bin b.
func (ix *index) headerAddr(b uint64) *uint64 {
	return &ix.bins[b*wordsPerBucket+hdrWord]
}

// linkMetaAddr returns the link-metadata word of bin b.
func (ix *index) linkMetaAddr(b uint64) *uint64 {
	return &ix.bins[b*wordsPerBucket+linkWord]
}

// slotKeyWord returns the key-word address of the given slot of bin b under
// the chaining described by meta. The value word immediately follows it and
// the pair is 16-byte aligned, so slotPair can view it as a *[2]uint64 for
// the double-word CAS.
func (ix *index) slotKeyWord(b uint64, meta uint64, slot int) *uint64 {
	bucket, pos := bucketForSlot(meta, slot)
	if bucket < 0 {
		return &ix.bins[b*wordsPerBucket+2+uint64(pos)*2]
	}
	return &ix.links[uint64(bucket)*wordsPerBucket+uint64(pos)*2]
}

// slotPair reinterprets a key-word pointer as the 16-byte slot (key word,
// value word) for CompareAndSwap128.
func slotPair(kw *uint64) *[2]uint64 {
	return (*[2]uint64)(unsafe.Pointer(kw))
}

// loadSlot atomically reads the key and value words of a slot. The two
// loads are individually atomic; callers establish consistency through the
// header-version protocol.
func (ix *index) loadSlot(b uint64, meta uint64, slot int) (key, val uint64) {
	kw := ix.slotKeyWord(b, meta, slot)
	p := slotPair(kw)
	key = atomic.LoadUint64(&p[0])
	val = atomic.LoadUint64(&p[1])
	return
}

// storeSlot atomically writes the key and value words of a slot. Only valid
// while the slot is in TryInsert state (invisible to readers) or during a
// bin transfer (readers excluded by InTransfer).
func (ix *index) storeSlot(b uint64, meta uint64, slot int, key, val uint64) {
	kw := ix.slotKeyWord(b, meta, slot)
	p := slotPair(kw)
	atomic.StoreUint64(&p[0], key)
	atomic.StoreUint64(&p[1], val)
}

// ---------------------------------------------------------------------------
// Link-bucket allocation
// ---------------------------------------------------------------------------

// allocLinkSingle pops or bump-allocates one link bucket. Returns 0 when
// the link array is exhausted (resize trigger).
func (ix *index) allocLinkSingle() uint32 {
	if idx := ix.popLink(&ix.freeSingles); idx != 0 {
		return idx
	}
	n := ix.nextLink.Add(1) - 1
	if n > ix.numLinks {
		return 0
	}
	return uint32(n)
}

// allocLinkPair pops or bump-allocates two consecutive link buckets,
// returning the index of the first, or 0 on exhaustion.
func (ix *index) allocLinkPair() uint32 {
	if idx := ix.popLink(&ix.freePairs); idx != 0 {
		return idx
	}
	n := ix.nextLink.Add(2) - 2
	if n+1 > ix.numLinks {
		return 0
	}
	return uint32(n)
}

// recycleLinkSingle and recycleLinkPair push buckets that lost a chaining
// race back onto the free stacks so they are not leaked.
func (ix *index) recycleLinkSingle(idx uint32) { ix.pushLink(&ix.freeSingles, idx) }
func (ix *index) recycleLinkPair(idx uint32)   { ix.pushLink(&ix.freePairs, idx) }

func (ix *index) pushLink(head *atomic.Uint64, idx uint32) {
	nextWord := &ix.links[uint64(idx)*wordsPerBucket]
	for {
		old := head.Load()
		tag := uint16(old >> 48)
		// Store the entire old head word (tag included) as the node's next
		// pointer; pop re-tags when it installs it.
		atomic.StoreUint64(nextWord, old)
		if head.CompareAndSwap(old, uint64(tag+1)<<48|uint64(idx)) {
			return
		}
	}
}

func (ix *index) popLink(head *atomic.Uint64) uint32 {
	for {
		old := head.Load()
		idx := uint32(old & 0xffffffff)
		if idx == 0 {
			return 0
		}
		next := atomic.LoadUint64(&ix.links[uint64(idx)*wordsPerBucket])
		tag := uint16(old >> 48)
		newHead := uint64(tag+1)<<48 | next&0xffffffff
		if head.CompareAndSwap(old, newHead) {
			// Scrub the next word so the bucket starts clean when reused.
			atomic.StoreUint64(&ix.links[uint64(idx)*wordsPerBucket], 0)
			return idx
		}
	}
}

// ---------------------------------------------------------------------------
// Occupancy probe (§5.1.5)
// ---------------------------------------------------------------------------

// occupancy returns the fraction of occupied (Valid or Shadow) slots over
// the total slot capacity of the index, counting every bin's full 15-slot
// capacity only for the buckets it has actually chained — matching the
// paper's definition of "occupied to total slots before a resize".
func (ix *index) occupancy() (occupied, capacity uint64) {
	for b := uint64(0); b < ix.numBins; b++ {
		hdr := atomic.LoadUint64(ix.headerAddr(b))
		meta := atomic.LoadUint64(ix.linkMetaAddr(b))
		limit := slotLimit(meta)
		occupied += uint64(countSlotsInState(hdr, slotValid, limit))
		occupied += uint64(countSlotsInState(hdr, slotShadow, limit))
	}
	// Total capacity counts all primary slots plus every link bucket slot,
	// whether or not chained yet: the index cannot hold more than this.
	capacity = ix.numBins*primarySlots + ix.numLinks*4
	return occupied, capacity
}
