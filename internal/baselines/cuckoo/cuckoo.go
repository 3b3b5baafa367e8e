// Package cuckoo reproduces a libcuckoo-style concurrent cuckoo hash map
// (Fan et al., MemC3/libcuckoo): two hash choices over 4-slot buckets,
// fine-grained striped spinlocks, and BFS path eviction on insert. The DLHT
// paper groups it with the designs that "mandate more than one memory
// access and do not use prefetching" (two bucket probes per Get), keeping
// it under 250 M req/s in Figure 3. Fixed size: inserts fail when no
// eviction path exists.
package cuckoo

import (
	"sync"

	"repro/internal/baselines"
	"repro/internal/hashfn"
)

const (
	slotsPerBucket = 4
	maxBFSDepth    = 5
	lockStripes    = 1 << 12
	// insertAttempts bounds how often Insert retries after an eviction:
	// a concurrent insert may take the slot an eviction freed before this
	// one re-locks its home buckets.
	insertAttempts = 8
)

type bucket struct {
	occupied [slotsPerBucket]bool
	keys     [slotsPerBucket]uint64
	vals     [slotsPerBucket]uint64
}

// Table is a concurrent cuckoo map.
type Table struct {
	h1, h2  hashfn.Func64
	buckets []bucket
	mask    uint64
	locks   [lockStripes]sync.Mutex
	// evictMu serializes path evictions; libcuckoo locks per path, but
	// eviction frequency at benchmark loads is low enough that the
	// simplification does not change the comparative shape.
	evictMu sync.Mutex
}

// New creates a cuckoo map with at least the given bucket count.
func New(buckets uint64, hash hashfn.Kind) *Table {
	n := uint64(16)
	for n < buckets {
		n <<= 1
	}
	base := hashfn.For64(hash)
	return &Table{
		h1:      base,
		h2:      func(k uint64) uint64 { return hashfn.Murmur3Fmix64(base(k) ^ 0x5bd1e995) },
		buckets: make([]bucket, n),
		mask:    n - 1,
	}
}

// Name implements baselines.Map.
func (t *Table) Name() string { return "Cuckoo" }

// Features implements baselines.Map.
func (t *Table) Features() baselines.Features {
	return baselines.Features{
		Addressing:       "open",
		LockFreeGets:     false,
		Puts:             "blocking",
		Inserts:          "blocking",
		DeletesReclaim:   true,
		DeletesSupported: true,
		Resizable:        false,
		Inlined:          true,
	}
}

func (t *Table) lockPair(b1, b2 uint64) (*sync.Mutex, *sync.Mutex) {
	l1 := &t.locks[b1&(lockStripes-1)]
	l2 := &t.locks[b2&(lockStripes-1)]
	if l1 == l2 {
		l1.Lock()
		return l1, nil
	}
	// Lock in address order to avoid deadlock.
	if b1&(lockStripes-1) < b2&(lockStripes-1) {
		l1.Lock()
		l2.Lock()
	} else {
		l2.Lock()
		l1.Lock()
	}
	return l1, l2
}

func unlockPair(l1, l2 *sync.Mutex) {
	l1.Unlock()
	if l2 != nil {
		l2.Unlock()
	}
}

// Get implements baselines.Map: two bucket probes under stripe locks.
func (t *Table) Get(key uint64) (uint64, bool) {
	b1 := t.h1(key) & t.mask
	b2 := t.h2(key) & t.mask
	l1, l2 := t.lockPair(b1, b2)
	defer unlockPair(l1, l2)
	for _, b := range []uint64{b1, b2} {
		bk := &t.buckets[b]
		for i := 0; i < slotsPerBucket; i++ {
			if bk.occupied[i] && bk.keys[i] == key {
				return bk.vals[i], true
			}
		}
	}
	return 0, false
}

// Insert implements baselines.Map with BFS path eviction.
func (t *Table) Insert(key, val uint64) bool {
	for attempt := 0; attempt < insertAttempts; attempt++ {
		b1 := t.h1(key) & t.mask
		b2 := t.h2(key) & t.mask
		l1, l2 := t.lockPair(b1, b2)
		exists := false
		inserted := false
		for _, b := range []uint64{b1, b2} {
			bk := &t.buckets[b]
			for i := 0; i < slotsPerBucket; i++ {
				if bk.occupied[i] && bk.keys[i] == key {
					exists = true
				}
			}
		}
		if !exists {
			for _, b := range []uint64{b1, b2} {
				bk := &t.buckets[b]
				for i := 0; i < slotsPerBucket && !inserted; i++ {
					if !bk.occupied[i] {
						bk.occupied[i] = true
						bk.keys[i] = key
						bk.vals[i] = val
						inserted = true
					}
				}
				if inserted {
					break
				}
			}
		}
		unlockPair(l1, l2)
		if exists {
			return false
		}
		if inserted {
			return true
		}
		// Both home buckets full: evict along a BFS path. Simplified global
		// mutex for the displacement (evictions are rare at sane loads).
		if !t.evict(key) {
			return false
		}
	}
	return false
}

func (t *Table) evict(key uint64) bool {
	t.evictMu.Lock()
	defer t.evictMu.Unlock()
	// BFS from both home buckets for a bucket with a free slot.
	start1 := t.h1(key) & t.mask
	start2 := t.h2(key) & t.mask
	queue := []pathNode{{start1, -1, -1}, {start2, -1, -1}}
	visited := map[uint64]bool{start1: true, start2: true}
	for qi := 0; qi < len(queue) && qi < 1<<maxBFSDepth; qi++ {
		n := queue[qi]
		l := &t.locks[n.bucket&(lockStripes-1)]
		l.Lock()
		bk := &t.buckets[n.bucket]
		freeSlot := -1
		var keys [slotsPerBucket]uint64
		for i := 0; i < slotsPerBucket; i++ {
			if !bk.occupied[i] {
				freeSlot = i
				break
			}
			keys[i] = bk.keys[i]
		}
		l.Unlock()
		if freeSlot >= 0 {
			// Walk the parent chain, moving one entry per hop.
			t.shuffle(queue, qi, freeSlot)
			return true
		}
		for i := 0; i < slotsPerBucket; i++ {
			k := keys[i]
			alt := t.h1(k) & t.mask
			if alt == n.bucket {
				alt = t.h2(k) & t.mask
			}
			if !visited[alt] {
				visited[alt] = true
				queue = append(queue, pathNode{alt, qi, i})
			}
		}
	}
	return false
}

// pathNode is one step of the BFS eviction search.
type pathNode struct {
	bucket uint64
	parent int
	slot   int
}

// shuffle moves entries backwards along the BFS path, freeing a slot in one
// of the target key's home buckets.
func (t *Table) shuffle(queue []pathNode, leaf, freeSlot int) {
	for cur := leaf; queue[cur].parent >= 0; {
		p := queue[cur].parent
		slotInParent := queue[cur].slot
		lp := &t.locks[queue[p].bucket&(lockStripes-1)]
		lc := &t.locks[queue[cur].bucket&(lockStripes-1)]
		if lp != lc {
			if queue[p].bucket&(lockStripes-1) < queue[cur].bucket&(lockStripes-1) {
				lp.Lock()
				lc.Lock()
			} else {
				lc.Lock()
				lp.Lock()
			}
		} else {
			lp.Lock()
		}
		pb := &t.buckets[queue[p].bucket]
		cb := &t.buckets[queue[cur].bucket]
		if pb.occupied[slotInParent] && !cb.occupied[freeSlot] {
			cb.occupied[freeSlot] = true
			cb.keys[freeSlot] = pb.keys[slotInParent]
			cb.vals[freeSlot] = pb.vals[slotInParent]
			pb.occupied[slotInParent] = false
		}
		lp.Unlock()
		if lp != lc {
			lc.Unlock()
		}
		freeSlot = slotInParent
		cur = p
	}
}

// Put implements baselines.Map.
func (t *Table) Put(key, val uint64) bool {
	b1 := t.h1(key) & t.mask
	b2 := t.h2(key) & t.mask
	l1, l2 := t.lockPair(b1, b2)
	defer unlockPair(l1, l2)
	for _, b := range []uint64{b1, b2} {
		bk := &t.buckets[b]
		for i := 0; i < slotsPerBucket; i++ {
			if bk.occupied[i] && bk.keys[i] == key {
				bk.vals[i] = val
				return true
			}
		}
	}
	return false
}

// Delete implements baselines.Map: cuckoo deletes reclaim slots.
func (t *Table) Delete(key uint64) bool {
	b1 := t.h1(key) & t.mask
	b2 := t.h2(key) & t.mask
	l1, l2 := t.lockPair(b1, b2)
	defer unlockPair(l1, l2)
	for _, b := range []uint64{b1, b2} {
		bk := &t.buckets[b]
		for i := 0; i < slotsPerBucket; i++ {
			if bk.occupied[i] && bk.keys[i] == key {
				bk.occupied[i] = false
				return true
			}
		}
	}
	return false
}

var _ baselines.Map = (*Table)(nil)
