package expiry

import core "repro/internal/core"

// RedoLog is what the state machine appends to a durable table's redo
// log (satisfied by *wal.Log). Each call returns the record's sequence
// number for the caller's group-commit wait.
type RedoLog interface {
	LogKVInsert(ns uint16, key, val []byte) (uint64, error)
	LogKVDelete(ns uint16, key []byte) (uint64, error)
	LogKVExpire(ns uint16, key []byte, at int64) (uint64, error)
}

// noLog stands in for the redo log of a RAM table.
type noLog struct{}

func (noLog) LogKVInsert(uint16, []byte, []byte) (uint64, error) { return 0, nil }
func (noLog) LogKVDelete(uint16, []byte) (uint64, error)         { return 0, nil }
func (noLog) LogKVExpire(uint16, []byte, int64) (uint64, error)  { return 0, nil }

// KV is the TTL'd key-value state machine: the one place that says what
// SET, DEL, EXPIRE, PERSIST, TTL, INCR and lazy expiry mean on an
// Allocator-mode table with a deadline Index beside it and, for a
// durable table, a redo log behind it. The RESP front-end, the
// wal.Store KV surface, the background sweeper, the open-time purge and
// WAL replay are all callers; none of them touches the table and the
// index together on its own.
//
// A KV borrows one table handle and inherits its single-goroutine
// contract. Callers pass the key's Table.HashOfKV and a key (and value)
// that Table.CheckKV accepts; an owner of a KVPipeline on the same
// handle drains it first. Every operation runs under the key's stripe
// lock, so the deadline check, the table mutation and the index update
// of one operation are atomic against every other KV on the same Index.
//
// Mutations return the highest redo sequence they appended (0 on a RAM
// table or when nothing was logged) and leave the wait to the caller:
// a connection defers it to its next flush, a synchronous store blocks
// on it. Log order per key is execution order, because records are
// appended under the stripe lock.
//
// What replay makes of the records fixes what is logged. An insert
// record upserts and clears the key's deadline, so a replace needs no
// delete record and a plain SET no record for the TTL it clears; a write
// that keeps a deadline logs an expire record after its insert record.
// Lazy and swept expiries are not logged: replay re-derives the deadline
// and PurgeExpired deletes again.
type KV struct {
	h   *core.Handle
	idx *Index
	log RedoLog
}

// Bind ties the state machine to a handle of an Allocator-mode table,
// the table's deadline index and its redo log (nil for a RAM table).
func Bind(h *core.Handle, idx *Index, log RedoLog) KV {
	if log == nil {
		log = noLog{}
	}
	return KV{h: h, idx: idx, log: log}
}

// SetFlags are SET's conditions.
type SetFlags uint8

const (
	// NX sets only an absent key, XX only a present one.
	NX SetFlags = 1 << iota
	XX
	// KeepTTL keeps the key's deadline where a plain SET clears it.
	KeepTTL
)

// expiredLocked is the lazy-expiry step: a key past its deadline is
// deleted, unlogged, and reported expired.
func (kv KV) expiredLocked(ns uint16, key []byte, hash uint64) bool {
	if !kv.idx.Expired(ns, key, hash) {
		return false
	}
	kv.h.DeleteKVHashed(ns, key, hash)
	kv.idx.Remove(ns, key, hash)
	return true
}

// storeLocked upserts the pair and sets (at > 0) or clears its deadline:
// one insert record, then the expire record that re-asserts a deadline.
func (kv KV) storeLocked(ns uint16, key, val []byte, hash uint64, at int64) (uint64, error) {
	if err := kv.h.UpsertKVHashed(ns, key, val, hash); err != nil {
		return 0, err
	}
	seq, err := kv.log.LogKVInsert(ns, key, val)
	if err != nil {
		return 0, err
	}
	if at <= 0 {
		kv.idx.Remove(ns, key, hash)
		return seq, nil
	}
	kv.idx.ExpireAt(ns, key, hash, at)
	eseq, err := kv.log.LogKVExpire(ns, key, at)
	if err != nil {
		return seq, err
	}
	return eseq, nil
}

// deleteLocked removes the pair and its deadline and logs the delete;
// an absent key is log-free.
func (kv KV) deleteLocked(ns uint16, key []byte, hash uint64) (bool, uint64, error) {
	if !kv.h.DeleteKVHashed(ns, key, hash) {
		return false, 0, nil
	}
	kv.idx.Remove(ns, key, hash)
	seq, err := kv.log.LogKVDelete(ns, key)
	return true, seq, err
}

// Set upserts key to val with deadline at (Unix ms; at <= 0 means none,
// which clears an existing deadline unless f has KeepTTL). It reports
// false when an NX or XX condition held the write back. WAL replay
// applies an insert record as an unconditional Set: the expiry check
// before an upsert that clears the deadline cannot change the outcome.
func (kv KV) Set(ns uint16, key, val []byte, hash uint64, at int64, f SetFlags) (bool, uint64, error) {
	mu := kv.idx.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	kv.expiredLocked(ns, key, hash)
	if f&(NX|XX) != 0 {
		if _, exists := kv.h.GetKV(ns, key); (f&NX != 0 && exists) || (f&XX != 0 && !exists) {
			return false, 0, nil
		}
	}
	if at <= 0 && f&KeepTTL != 0 {
		at, _ = kv.idx.Deadline(ns, key, hash)
	}
	seq, err := kv.storeLocked(ns, key, val, hash, at)
	return err == nil, seq, err
}

// Update is the read-modify-write behind INCR. fn sees key's live value
// (ok is false when it is absent or expired; cur is a table view, valid
// only inside fn) and returns the replacement, or an error that abandons
// the update. The key keeps its deadline. fn runs under the stripe lock
// and must not call back into a KV.
func (kv KV) Update(ns uint16, key []byte, hash uint64, fn func(cur []byte, ok bool) ([]byte, error)) (uint64, error) {
	mu := kv.idx.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	kv.expiredLocked(ns, key, hash)
	val, err := fn(kv.h.GetKV(ns, key))
	if err != nil {
		return 0, err
	}
	at, _ := kv.idx.Deadline(ns, key, hash)
	return kv.storeLocked(ns, key, val, hash, at)
}

// Delete removes key, reporting whether a live pair was there; an
// expired key counts as already gone. WAL replay applies a delete record
// as a Delete.
func (kv KV) Delete(ns uint16, key []byte, hash uint64) (bool, uint64, error) {
	mu := kv.idx.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	if kv.expiredLocked(ns, key, hash) {
		return false, 0, nil
	}
	return kv.deleteLocked(ns, key, hash)
}

// ExpireAt sets a live key's deadline to at (Unix ms), reporting whether
// the key was there. A deadline at or before now deletes the key at once
// with a real delete record, not a lazy expiry, and still reports true.
func (kv KV) ExpireAt(ns uint16, key []byte, hash uint64, at int64) (bool, uint64, error) {
	mu := kv.idx.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	if kv.expiredLocked(ns, key, hash) {
		return false, 0, nil
	}
	if at <= kv.idx.Now() {
		return kv.deleteLocked(ns, key, hash)
	}
	if _, ok := kv.h.GetKV(ns, key); !ok {
		return false, 0, nil
	}
	kv.idx.ExpireAt(ns, key, hash, at)
	seq, err := kv.log.LogKVExpire(ns, key, at)
	return true, seq, err
}

// Persist removes a live key's deadline, reporting whether it had one.
func (kv KV) Persist(ns uint16, key []byte, hash uint64) (bool, uint64, error) {
	mu := kv.idx.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	if kv.expiredLocked(ns, key, hash) || !kv.idx.Remove(ns, key, hash) {
		return false, 0, nil
	}
	seq, err := kv.log.LogKVExpire(ns, key, 0)
	return true, seq, err
}

// TTL reports a key's remaining time in milliseconds: (rem, true, true)
// with a deadline, (0, false, true) for a live key without one,
// (0, false, false) for an absent or expired key.
func (kv KV) TTL(ns uint16, key []byte, hash uint64) (rem int64, hasTTL, exists bool) {
	mu := kv.idx.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	if kv.expiredLocked(ns, key, hash) {
		return 0, false, false
	}
	if _, ok := kv.h.GetKV(ns, key); !ok {
		return 0, false, false
	}
	at, ok := kv.idx.Deadline(ns, key, hash)
	if !ok {
		return 0, false, true
	}
	return at - kv.idx.Now(), true, true
}

// Expired is the lazy-expiry check of a read: a key past its deadline is
// deleted and reported expired, and the caller answers a miss. A key
// with no deadline costs one Index.Deadline lookup (one atomic load on a
// TTL-free table) and no lock. False after a lost race against a writer
// means the key is live again and the caller reads it.
func (kv KV) Expired(ns uint16, key []byte, hash uint64) bool {
	if !kv.idx.Expired(ns, key, hash) {
		return false
	}
	mu := kv.idx.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	return kv.expiredLocked(ns, key, hash)
}

// OnExpired is the sweeper's SweepOnce callback: re-check the sampled
// key under its stripe lock — a SET or PERSIST may have replaced the
// deadline since the sample — and delete it if it is still expired.
func (kv KV) OnExpired(ns uint16, key []byte, _ int64) {
	kv.Expired(ns, key, kv.h.Table().HashOfKV(ns, key))
}

// PurgeExpired deletes every key whose deadline has passed. A durable
// store runs it after replay and before serving, so a key that died
// while the store was down cannot answer a read. The deletions are not
// logged: the records that re-create the keys replay again on the next
// open and purge again, until a snapshot captures the purged state.
func (kv KV) PurgeExpired() {
	now := kv.idx.Now()
	kv.idx.Range(func(ns uint16, key []byte, at int64) bool {
		if at <= now {
			kv.OnExpired(ns, key, at)
		}
		return true
	})
}
