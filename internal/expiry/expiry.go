// Package expiry tracks per-key time-to-live deadlines beside an
// Allocator-mode DLHT table. The table itself stays TTL-free — expiry is
// a sidecar index from (namespace, key) to an absolute Unix-millisecond
// deadline, consulted lazily on reads (an expired key answers as a miss
// and is deleted) and swept in the background by a sampling goroutine,
// memcached/Redis style.
//
// The index is deliberately dumb about the table: it stores deadlines and
// nothing else. The KV state machine in this package (kv.go) is the one
// owner of everything that touches the table and the index together —
// SET, DEL, EXPIRE, PERSIST, lazy expiry, the sweeper's deletions — and
// holds the per-key stripe lock the index hands out so a compound
// operation — check the deadline, delete the pair, drop the entry — is
// atomic against a concurrent SET or PERSIST racing on the same key.
//
// TTL-free workloads pay one atomic load per read: every method that
// could miss consults an entry counter first and returns without locking
// when the index is empty.
package expiry

import (
	"sync"
	"sync/atomic"
	"time"
)

// NowMs is the production clock: Unix milliseconds.
func NowMs() int64 { return time.Now().UnixMilli() }

// shardCount sharding of the deadline map bounds lock contention between
// connections setting TTLs; stripeCount is the compound-operation lock
// pool (see Lock). Both are powers of two.
const (
	shardCount  = 64
	stripeCount = 128
)

type shard struct {
	mu sync.Mutex
	m  map[string]int64
}

// Index maps (namespace, key) to an absolute expiry deadline in Unix
// milliseconds. All methods are safe for concurrent use; the per-key
// compound locks are handed out by Lock. The zero Index is not usable —
// construct with New.
type Index struct {
	now    func() int64
	count  atomic.Int64
	shards [shardCount]shard
	locks  [stripeCount]sync.Mutex
}

// New creates an Index reading time from now (Unix milliseconds); nil
// selects the real clock. Tests inject a fake clock here to make
// lazy-vs-sweep properties deterministic.
func New(now func() int64) *Index {
	if now == nil {
		now = NowMs
	}
	ix := &Index{now: now}
	for i := range ix.shards {
		ix.shards[i].m = make(map[string]int64)
	}
	return ix
}

// Now returns the index's current time in Unix milliseconds.
func (ix *Index) Now() int64 { return ix.now() }

// Lock returns the stripe lock for a key hash (Table.HashOfKV). KV holds
// it across compound check-then-mutate sequences that touch both the
// table and the index, so a lazy-expire delete cannot race a concurrent
// SET into deleting the new value, and a sweeper deletion cannot race a
// PERSIST. Index methods never take stripe locks themselves; the order is
// always stripe lock, then shard lock.
func (ix *Index) Lock(hash uint64) *sync.Mutex {
	return &ix.locks[hash&(stripeCount-1)]
}

// Len returns the number of keys with a deadline.
func (ix *Index) Len() int { return int(ix.count.Load()) }

// mapKey encodes the shard-map key: 2 namespace bytes, then the key.
func mapKey(dst []byte, ns uint16, key []byte) []byte {
	dst = append(dst, byte(ns>>8), byte(ns))
	return append(dst, key...)
}

// splitKey is mapKey's inverse.
func splitKey(mk string) (ns uint16, key []byte) {
	return uint16(mk[0])<<8 | uint16(mk[1]), []byte(mk[2:])
}

func (ix *Index) shardFor(hash uint64) *shard {
	return &ix.shards[hash&(shardCount-1)]
}

// ExpireAt sets key's deadline to at (Unix ms), replacing any previous
// one. hash is the key's Table.HashOfKV, reused for shard selection so
// the sidecar never rehashes.
func (ix *Index) ExpireAt(ns uint16, key []byte, hash uint64, at int64) {
	var a [80]byte
	mk := mapKey(a[:0], ns, key)
	s := ix.shardFor(hash)
	s.mu.Lock()
	if _, ok := s.m[string(mk)]; !ok {
		ix.count.Add(1)
	}
	s.m[string(mk)] = at
	s.mu.Unlock()
}

// Remove drops key's deadline, reporting whether one existed. Called on
// PERSIST, on deletion, and on overwrite without TTL (a plain SET clears
// the TTL, Redis semantics).
func (ix *Index) Remove(ns uint16, key []byte, hash uint64) bool {
	if ix.count.Load() == 0 {
		return false
	}
	var a [80]byte
	mk := mapKey(a[:0], ns, key)
	s := ix.shardFor(hash)
	s.mu.Lock()
	_, ok := s.m[string(mk)]
	if ok {
		delete(s.m, string(mk))
		ix.count.Add(-1)
	}
	s.mu.Unlock()
	return ok
}

// Deadline returns key's deadline and whether one is set. The empty-index
// fast path is one atomic load, so TTL-free read traffic never locks.
func (ix *Index) Deadline(ns uint16, key []byte, hash uint64) (int64, bool) {
	if ix.count.Load() == 0 {
		return 0, false
	}
	var a [80]byte
	mk := mapKey(a[:0], ns, key)
	s := ix.shardFor(hash)
	s.mu.Lock()
	at, ok := s.m[string(mk)]
	s.mu.Unlock()
	return at, ok
}

// Expired reports whether key has a deadline at or before the index's
// current time — the lazy check on the read path.
func (ix *Index) Expired(ns uint16, key []byte, hash uint64) bool {
	at, ok := ix.Deadline(ns, key, hash)
	return ok && at <= ix.now()
}

// Range calls fn for every entry until fn returns false. It walks shard
// by shard under the shard lock against a copied view, so fn may call
// back into the index. Weakly consistent, like the table's iterators;
// the snapshotter is the intended caller.
func (ix *Index) Range(fn func(ns uint16, key []byte, at int64) bool) {
	type ent struct {
		mk string
		at int64
	}
	var batch []ent
	for i := range ix.shards {
		s := &ix.shards[i]
		batch = batch[:0]
		s.mu.Lock()
		for mk, at := range s.m {
			batch = append(batch, ent{mk, at})
		}
		s.mu.Unlock()
		for _, e := range batch {
			ns, key := splitKey(e.mk)
			if !fn(ns, key, e.at) {
				return
			}
		}
	}
}
