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
// Allocator-mode table whose pairs carry their deadline in their block's
// metadata word and, for a durable table, a redo log behind it. The RESP
// front-end, the binary KV ops, the wal.Store KV surface, the background
// crawler, the open-time purge and WAL replay are all callers; none of
// them deletes or replaces a pair on a deadline's say-so on its own.
//
// A KV borrows one table handle and inherits its single-goroutine
// contract. Callers pass the key's Table.HashOfKV and a key (and value)
// that Table.CheckKV accepts; an owner of a KVPipeline on the same
// handle drains it first. Every operation runs under the key's stripe
// lock, so the deadline read, the decision and the table mutation of one
// operation are atomic against every other KV on the same Index. Readers
// take no lock: they see the deadline — one atomic word — beside the value
// they came for (Dead), and come back through Expired to delete.
//
// Mutations return the highest redo sequence they appended (0 on a RAM
// table or when nothing was logged) and leave the wait to the caller:
// a connection defers it to its next flush, a synchronous store blocks
// on it. Log order per key is execution order, because records are
// appended under the stripe lock.
//
// What replay makes of the records fixes what is logged. An insert
// record upserts with no deadline, so a replace needs no delete record
// and a plain SET no record for the TTL it clears; a write that keeps a
// deadline logs an expire record after its insert record. Lazy and
// crawled expiries are not logged: replay re-derives the deadline and
// PurgeExpired deletes again.
type KV struct {
	h   *core.Handle
	idx *Index
	log RedoLog
}

// Bind ties the state machine to a handle of an Allocator-mode table,
// the table's clock-and-locks Index and its redo log (nil for a RAM
// table).
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

// readLocked is every operation's first step: key's live pair — a view of
// its value and its deadline (Unix ms, 0 for none) — after the
// lazy-expiry step, which deletes, unlogged, a pair past its deadline and
// reports it dead.
func (kv KV) readLocked(ns uint16, key []byte, hash uint64) (val []byte, at int64, ok, dead bool) {
	val, meta, ok := kv.h.GetKVMeta(ns, key, hash)
	if ok && Dead(meta, kv.idx.Now()) {
		kv.h.DeleteKVHashed(ns, key, hash)
		return nil, 0, false, true
	}
	return val, int64(meta), ok, false
}

// storeLocked upserts the pair with deadline at (at <= 0: none): one
// insert record, then the expire record that re-asserts a deadline.
func (kv KV) storeLocked(ns uint16, key, val []byte, hash uint64, at int64) (uint64, error) {
	if at < 0 {
		at = 0
	}
	if err := kv.h.UpsertKVHashed(ns, key, val, hash, uint64(at)); err != nil {
		return 0, err
	}
	seq, err := kv.log.LogKVInsert(ns, key, val)
	if err != nil || at == 0 {
		return seq, err
	}
	eseq, err := kv.log.LogKVExpire(ns, key, at)
	if err != nil {
		return seq, err
	}
	return eseq, nil
}

// deleteLocked removes the pair — its deadline goes with its block — and
// logs the delete; an absent key is log-free.
func (kv KV) deleteLocked(ns uint16, key []byte, hash uint64) (bool, uint64, error) {
	if !kv.h.DeleteKVHashed(ns, key, hash) {
		return false, 0, nil
	}
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
	_, cur, exists, _ := kv.readLocked(ns, key, hash)
	if (f&NX != 0 && exists) || (f&XX != 0 && !exists) {
		return false, 0, nil
	}
	if at <= 0 && f&KeepTTL != 0 {
		at = cur
	}
	seq, err := kv.storeLocked(ns, key, val, hash, at)
	return err == nil, seq, err
}

// Update is the read-modify-write behind INCR. fn sees key's live value
// (ok is false when it is absent or expired; cur is a table view, valid
// only inside fn) and returns the replacement, or an error that abandons
// the update. The key keeps its deadline: the new block is written with
// the old one's. fn runs under the stripe lock and must not call back
// into a KV.
func (kv KV) Update(ns uint16, key []byte, hash uint64, fn func(cur []byte, ok bool) ([]byte, error)) (uint64, error) {
	mu := kv.idx.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	cur, at, ok, _ := kv.readLocked(ns, key, hash)
	val, err := fn(cur, ok)
	if err != nil {
		return 0, err
	}
	return kv.storeLocked(ns, key, val, hash, at)
}

// Delete removes key, reporting whether a live pair was there; an
// expired key counts as already gone. WAL replay applies a delete record
// as a Delete.
func (kv KV) Delete(ns uint16, key []byte, hash uint64) (bool, uint64, error) {
	mu := kv.idx.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	if _, _, ok, _ := kv.readLocked(ns, key, hash); !ok {
		return false, 0, nil
	}
	return kv.deleteLocked(ns, key, hash)
}

// ExpireAt sets a live key's deadline to at (Unix ms) in place, reporting
// whether the key was there. A deadline at or before now deletes the key
// at once with a real delete record, not a lazy expiry, and still reports
// true.
func (kv KV) ExpireAt(ns uint16, key []byte, hash uint64, at int64) (bool, uint64, error) {
	mu := kv.idx.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	if _, _, ok, _ := kv.readLocked(ns, key, hash); !ok {
		return false, 0, nil
	}
	if at <= kv.idx.Now() {
		return kv.deleteLocked(ns, key, hash)
	}
	if !kv.h.SetKVMeta(ns, key, hash, uint64(at)) {
		return false, 0, core.ErrNoMeta
	}
	seq, err := kv.log.LogKVExpire(ns, key, at)
	return true, seq, err
}

// Persist removes a live key's deadline in place, reporting whether it
// had one.
func (kv KV) Persist(ns uint16, key []byte, hash uint64) (bool, uint64, error) {
	mu := kv.idx.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	if _, at, ok, _ := kv.readLocked(ns, key, hash); !ok || at == 0 {
		return false, 0, nil
	}
	kv.h.SetKVMeta(ns, key, hash, 0)
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
	_, at, ok, _ := kv.readLocked(ns, key, hash)
	if !ok || at == 0 {
		return 0, false, ok
	}
	return at - kv.idx.Now(), true, true
}

// Expired is the locked half of lazy expiry: a reader (or the crawler)
// that found a pair Dead comes here to have it re-checked under the
// stripe and deleted. False after a lost race against a writer means the
// key is live again.
func (kv KV) Expired(ns uint16, key []byte, hash uint64) bool {
	mu := kv.idx.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	_, _, _, dead := kv.readLocked(ns, key, hash)
	return dead
}

// Get is the synchronous read with lazy expiry, for callers with no
// pipeline completion to check: key's value view, or a miss when the key
// is absent or Dead at now — the caller's once-per-burst clock sample.
func (kv KV) Get(ns uint16, key []byte, hash uint64, now int64) ([]byte, bool) {
	val, meta, ok := kv.h.GetKVMeta(ns, key, hash)
	if ok && Dead(meta, now) {
		if kv.Expired(ns, key, hash) {
			return nil, false
		}
		// A writer revived the key between the two checks: read it again.
		val, _, ok = kv.h.GetKVMeta(ns, key, hash)
	}
	return val, ok
}

// SetDeadline is how WAL replay applies an expire record: the deadline
// (0 clears it) stored in place, clock-free — whether it has passed is
// decided once, by PurgeExpired after the last record. A record for a key
// the table no longer holds is a no-op: the deadline went with the pair.
func (kv KV) SetDeadline(ns uint16, key []byte, hash uint64, at int64) {
	mu := kv.idx.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	if at < 0 {
		at = 0
	}
	kv.h.SetKVMeta(ns, key, hash, uint64(at))
}

// PurgeExpired deletes every pair whose deadline has passed: one full
// crawl. A durable store runs it after replay and before serving, so a
// key that died while the store was down cannot answer a read. The
// deletions are not logged: the records that re-create the keys replay
// again on the next open and purge again, until a snapshot captures the
// purged state.
func (kv KV) PurgeExpired() {
	c := kv.Crawler()
	for done := false; !done; {
		_, _, done = c.step(1 << 12)
	}
}
