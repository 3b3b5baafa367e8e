package expiry

import (
	"repro/internal/alloc"
	core "repro/internal/core"
)

// RedoLog is what the state machine logs a durable table's mutations
// through (satisfied by *wal.Log). LogKV is the one durable step of a KV
// mutation that applied on h: it appends the state key's pair holds, read
// through h under the log's lock, and returns the record's sequence
// number for the caller's group-commit wait. After a value write
// (deadline false) that is the pair's insert record, plus an expire
// record when the pair has a deadline; after a deadline write, the
// pair's expire record; and a delete record when the pair is absent.
type RedoLog interface {
	LogKV(h *core.Handle, ns uint16, key []byte, hash uint64, deadline bool) (uint64, error)
}

// noLog stands in for the redo log of a RAM table.
type noLog struct{}

func (noLog) LogKV(*core.Handle, uint16, []byte, uint64, bool) (uint64, error) { return 0, nil }

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
// handle drains it first. No operation takes a lock. A plain SET is one
// upsert. Every other operation reads the pair, decides, and commits with
// one CAS on the pair's slot conditioned on the block ref the read
// returned (core.Handle.DeleteKVIf, ReplaceKVIf); when another writer
// changed the pair in between, the CAS fails and the operation reads
// again. A deadline is written with its block and never changed in place
// — EXPIRE and PERSIST replace the block — so the ref names the value and
// the deadline together. Readers see the deadline beside the value they
// came for (Dead), and come back through Expired to delete.
//
// Mutations return the highest redo sequence they appended (0 on a RAM
// table or when nothing was logged) and leave the wait to the caller:
// a connection defers it to its next flush, a synchronous store blocks
// on it. Each effective mutation is logged after it applies, as the
// state its pair then holds (RedoLog.LogKV), so however two handles'
// applies and appends interleave, a key's last record reflects its last
// logged apply.
//
// What replay makes of the records fixes what is logged. An insert
// record upserts with no deadline, so a replace needs no delete record
// and a plain SET no record for the TTL it clears; a pair with a deadline
// logs an expire record after its insert record. Lazy and crawled
// expiries are not logged: replay re-derives the deadline and
// PurgeExpired deletes again.
type KV struct {
	h   *core.Handle
	idx *Index
	log RedoLog
}

// Bind ties the state machine to a handle of an Allocator-mode table,
// the table's clock and its redo log (nil for a RAM table). It panics —
// API misuse, like core's — on an Allocator-mode table without EpochGC:
// a KV's conditional CAS compares block refs, which stay unambiguous only
// while a swapped-out block cannot come back as another pair under a
// handle that still holds its ref, and every TTL'd table is written from
// more than one handle (its crawler's at least).
func Bind(h *core.Handle, idx *Index, log RedoLog) KV {
	if t := h.Table(); t.Mode() == core.Allocator && !t.EpochGC() {
		panic("expiry: a TTL'd table needs Config.EpochGC")
	}
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

// live reads key's pair as of now: its value view, deadline (Unix ms, 0
// for none) and block ref, or a nil ref when the key is absent. A pair
// Dead at now is lazily expired — deleted, unlogged, by DeleteKVIf, which
// leaves alone a pair a writer put there since — and reads as absent;
// expired reports that this call deleted it.
func (kv KV) live(ns uint16, key []byte, hash uint64, now int64) (val []byte, at int64, ref alloc.Ref, expired bool) {
	val, meta, ref := kv.h.GetKVMeta(ns, key, hash)
	if !ref.IsNil() && Dead(meta, now) {
		return nil, 0, 0, kv.h.DeleteKVIf(ns, key, hash, ref)
	}
	return val, int64(meta), ref, false
}

// read is live at the clock's now: every check-and-act operation's first
// step.
func (kv KV) read(ns uint16, key []byte, hash uint64) ([]byte, int64, alloc.Ref) {
	val, at, ref, _ := kv.live(ns, key, hash, kv.idx.Now())
	return val, at, ref
}

// replace is every check-and-act write's commit: val with deadline at
// (at <= 0: none) replaces the pair whose block is ref — with ref nil it
// fills the absent key — unless another writer changed the pair since it
// was read (done false: read again). A committed write is logged.
func (kv KV) replace(ns uint16, key, val []byte, hash uint64, at int64, ref alloc.Ref, deadline bool) (done bool, seq uint64, err error) {
	done, err = kv.h.ReplaceKVIf(ns, key, val, hash, uint64(max(at, 0)), ref)
	if done {
		seq, err = kv.log.LogKV(kv.h, ns, key, hash, deadline)
	}
	return done || err != nil, seq, err
}

// Set upserts key to val with deadline at (Unix ms; at <= 0 means none,
// which clears an existing deadline unless f has KeepTTL). It reports
// false when an NX or XX condition held the write back. A plain SET is
// one upsert with no read; WAL replay applies an insert record as one.
func (kv KV) Set(ns uint16, key, val []byte, hash uint64, at int64, f SetFlags) (bool, uint64, error) {
	if f == 0 {
		if err := kv.h.UpsertKVHashed(ns, key, val, hash, uint64(max(at, 0))); err != nil {
			return false, 0, err
		}
		seq, err := kv.log.LogKV(kv.h, ns, key, hash, false)
		return err == nil, seq, err
	}
	for {
		_, cur, ref := kv.read(ns, key, hash)
		if (f&NX != 0 && !ref.IsNil()) || (f&XX != 0 && ref.IsNil()) {
			return false, 0, nil
		}
		keep := at
		if at <= 0 && f&KeepTTL != 0 {
			keep = cur
		}
		if done, seq, err := kv.replace(ns, key, val, hash, keep, ref, false); done {
			return err == nil, seq, err
		}
	}
}

// Update is the read-modify-write behind INCR. fn sees key's live value
// (ok is false when it is absent or expired; cur is a table view, valid
// only inside fn) and returns the replacement, or an error that abandons
// the update. The key keeps its deadline: the new block is written with
// the old one's. The replacement commits only over the pair fn saw; when
// another writer changed the pair first, fn runs again on what that
// writer left, so fn may run more than once and must compute its result
// from cur alone. fn must not call back into a KV.
func (kv KV) Update(ns uint16, key []byte, hash uint64, fn func(cur []byte, ok bool) ([]byte, error)) (uint64, error) {
	for {
		cur, at, ref := kv.read(ns, key, hash)
		val, err := fn(cur, !ref.IsNil())
		if err != nil {
			return 0, err
		}
		if done, seq, err := kv.replace(ns, key, val, hash, at, ref, false); done {
			return seq, err
		}
	}
}

// Delete removes key, reporting whether a live pair was there; an
// expired key counts as already gone. WAL replay applies a delete record
// as a Delete.
func (kv KV) Delete(ns uint16, key []byte, hash uint64) (bool, uint64, error) {
	for {
		_, _, ref := kv.read(ns, key, hash)
		if ref.IsNil() {
			return false, 0, nil
		}
		if kv.h.DeleteKVIf(ns, key, hash, ref) {
			seq, err := kv.log.LogKV(kv.h, ns, key, hash, false)
			return true, seq, err
		}
	}
}

// ExpireAt sets a live key's deadline to at (Unix ms), reporting whether
// the key was there. The pair's block is replaced by one with the same
// value and the new deadline. A deadline at or before now deletes the key
// at once with a real delete record, not a lazy expiry, and still reports
// true.
func (kv KV) ExpireAt(ns uint16, key []byte, hash uint64, at int64) (bool, uint64, error) {
	if at <= kv.idx.Now() {
		return kv.Delete(ns, key, hash)
	}
	for {
		val, _, ref := kv.read(ns, key, hash)
		if ref.IsNil() {
			return false, 0, nil
		}
		if done, seq, err := kv.replace(ns, key, val, hash, at, ref, true); done {
			return err == nil, seq, err
		}
	}
}

// Persist removes a live key's deadline, replacing its block, and reports
// whether it had one.
func (kv KV) Persist(ns uint16, key []byte, hash uint64) (bool, uint64, error) {
	for {
		val, at, ref := kv.read(ns, key, hash)
		if ref.IsNil() || at == 0 {
			return false, 0, nil
		}
		if done, seq, err := kv.replace(ns, key, val, hash, 0, ref, true); done {
			return err == nil, seq, err
		}
	}
}

// TTL reports a key's remaining time in milliseconds: (rem, true, true)
// with a deadline, (0, false, true) for a live key without one,
// (0, false, false) for an absent or expired key.
func (kv KV) TTL(ns uint16, key []byte, hash uint64) (rem int64, hasTTL, exists bool) {
	_, at, ref := kv.read(ns, key, hash)
	if ref.IsNil() || at == 0 {
		return 0, false, !ref.IsNil()
	}
	return at - kv.idx.Now(), true, true
}

// Expired is lazy expiry's delete: a reader (or the crawler) that found a
// pair Dead comes here to have it re-checked and deleted. It reports
// whether this call deleted a dead pair; false after a lost race means a
// writer replaced the pair — the key may be live again — or another
// expirer deleted it first.
func (kv KV) Expired(ns uint16, key []byte, hash uint64) bool {
	_, _, _, expired := kv.live(ns, key, hash, kv.idx.Now())
	return expired
}

// Get is the synchronous read with lazy expiry, for callers with no
// pipeline completion to check: key's value view, or a miss when the key
// is absent or Dead at now — the caller's once-per-burst clock sample.
func (kv KV) Get(ns uint16, key []byte, hash uint64, now int64) ([]byte, bool) {
	val, _, ref, _ := kv.live(ns, key, hash, now)
	return val, !ref.IsNil()
}

// SetDeadline is how WAL replay applies an expire record: the pair's
// block replaced by one with deadline at (0 clears it), clock-free —
// whether it has passed is decided once, by PurgeExpired after the last
// record. A record for a key the table no longer holds is a no-op: the
// deadline went with the pair. Replay is the table's one writer, so the
// replace cannot lose a race.
func (kv KV) SetDeadline(ns uint16, key []byte, hash uint64, at int64) {
	if val, _, ref := kv.h.GetKVMeta(ns, key, hash); !ref.IsNil() {
		kv.h.ReplaceKVIf(ns, key, val, hash, uint64(max(at, 0)), ref)
	}
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
