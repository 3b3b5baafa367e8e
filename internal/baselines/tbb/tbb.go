// Package tbb reproduces the skeleton of Intel oneTBB's
// concurrent_hash_map as the DLHT paper evaluates it: separate chaining
// with heap-allocated nodes and per-bucket reader-writer locks, growable
// under a global rehash lock. Pointer-chasing chains plus lock acquisition
// on every access keep it in the paper's sub-250 M req/s tier (Figure 3).
package tbb

import (
	"sync"

	"repro/internal/baselines"
	"repro/internal/hashfn"
)

type node struct {
	key  uint64
	val  uint64
	next *node
}

const stripes = 1 << 10

// Table is a chained concurrent map.
type Table struct {
	hash hashfn.Func64

	// global guards the bucket array pointer during rehash; ops take it
	// shared, rehash takes it exclusive.
	global  sync.RWMutex
	buckets []*node
	mask    uint64
	locks   [stripes]sync.RWMutex

	sizeMu sync.Mutex // guards size; a rehash also holds it to write mask
	size   int
}

// New creates a TBB-style map with at least the given bucket count.
func New(buckets uint64, hash hashfn.Kind) *Table {
	n := uint64(16)
	for n < buckets {
		n <<= 1
	}
	return &Table{
		hash:    hashfn.For64(hash),
		buckets: make([]*node, n),
		mask:    n - 1,
	}
}

// Name implements baselines.Map.
func (t *Table) Name() string { return "TBB" }

// Features implements baselines.Map.
func (t *Table) Features() baselines.Features {
	return baselines.Features{
		Addressing:       "closed",
		LockFreeGets:     false,
		Puts:             "blocking",
		Inserts:          "blocking",
		DeletesReclaim:   true,
		DeletesSupported: true,
		Resizable:        true,
		Inlined:          false, // nodes are heap allocations
	}
}

// Get implements baselines.Map.
func (t *Table) Get(key uint64) (uint64, bool) {
	t.global.RLock()
	defer t.global.RUnlock()
	b := t.hash(key) & t.mask
	l := &t.locks[b&(stripes-1)]
	l.RLock()
	defer l.RUnlock()
	for n := t.buckets[b]; n != nil; n = n.next {
		if n.key == key {
			return n.val, true
		}
	}
	return 0, false
}

// Insert implements baselines.Map.
func (t *Table) Insert(key, val uint64) bool {
	t.maybeGrow()
	t.global.RLock()
	b := t.hash(key) & t.mask
	l := &t.locks[b&(stripes-1)]
	l.Lock()
	for n := t.buckets[b]; n != nil; n = n.next {
		if n.key == key {
			l.Unlock()
			t.global.RUnlock()
			return false
		}
	}
	t.buckets[b] = &node{key: key, val: val, next: t.buckets[b]}
	l.Unlock()
	t.global.RUnlock()
	t.sizeMu.Lock()
	t.size++
	t.sizeMu.Unlock()
	return true
}

// Put implements baselines.Map.
func (t *Table) Put(key, val uint64) bool {
	t.global.RLock()
	defer t.global.RUnlock()
	b := t.hash(key) & t.mask
	l := &t.locks[b&(stripes-1)]
	l.Lock()
	defer l.Unlock()
	for n := t.buckets[b]; n != nil; n = n.next {
		if n.key == key {
			n.val = val
			return true
		}
	}
	return false
}

// Delete implements baselines.Map: unlinks and frees the node.
func (t *Table) Delete(key uint64) bool {
	t.global.RLock()
	b := t.hash(key) & t.mask
	l := &t.locks[b&(stripes-1)]
	l.Lock()
	pp := &t.buckets[b]
	for n := *pp; n != nil; n = *pp {
		if n.key == key {
			*pp = n.next
			l.Unlock()
			t.global.RUnlock()
			t.sizeMu.Lock()
			t.size--
			t.sizeMu.Unlock()
			return true
		}
		pp = &n.next
	}
	l.Unlock()
	t.global.RUnlock()
	return false
}

// maybeGrow rehashes under the exclusive global lock when the load factor
// exceeds 1 — every operation blocks for the duration, as in TBB's
// stop-the-world style rehash.
func (t *Table) maybeGrow() {
	t.sizeMu.Lock()
	sz, mask := t.size, t.mask
	t.sizeMu.Unlock()
	if uint64(sz) <= mask {
		return
	}
	t.global.Lock()
	defer t.global.Unlock()
	t.sizeMu.Lock()
	sz = t.size
	t.sizeMu.Unlock()
	if uint64(sz) <= t.mask {
		return
	}
	newMask := (t.mask+1)*2 - 1
	nb := make([]*node, newMask+1)
	for _, head := range t.buckets {
		for n := head; n != nil; {
			next := n.next
			b := t.hash(n.key) & newMask
			n.next = nb[b]
			nb[b] = n
			n = next
		}
	}
	t.buckets = nb
	t.sizeMu.Lock()
	t.mask = newMask
	t.sizeMu.Unlock()
}

var _ baselines.Map = (*Table)(nil)
