package wal

import (
	"time"

	core "repro/internal/core"
)

// Allocator-mode KV surface with TTLs: the synchronous face of the
// expiry.KV state machine the RESP front-end also drives. PutKV/PutTTL
// upsert (a plain put clears any TTL, Redis SET semantics),
// ExpireAt/Persist manage the deadline of a live key, TTL and GetKV check
// it lazily — an expired key answers as a miss and is deleted on the
// spot. All of them follow the Store's synchronous contract: effective
// mutations return after their record's covering group commit.
//
// Like the rest of the synchronous surface they run on the Store's
// foreground handle — per-goroutine, one caller at a time. Servers with
// many connections serve the table through their own handles and this
// store's Expiry()/Log() pair instead (the RESP listener does exactly
// that).

// synced is the synchronous contract's tail: wait out the group commit
// covering what a mutation appended.
func (s *Store) synced(seq uint64, err error) error {
	if err != nil {
		return err
	}
	return s.log.SyncWait(seq)
}

// PutKV upserts key to val with no TTL, clearing any existing deadline.
func (s *Store) PutKV(ns uint16, key, val []byte) error {
	return s.putKV(ns, key, val, 0)
}

// PutTTL upserts key to val with a relative TTL (millisecond resolution;
// non-positive TTLs fall back to a plain put).
func (s *Store) PutTTL(ns uint16, key, val []byte, ttl time.Duration) error {
	if s.exp == nil {
		return core.ErrWrongMode
	}
	at := int64(0)
	if ttl > 0 {
		at = s.exp.Now() + ttl.Milliseconds()
	}
	return s.putKV(ns, key, val, at)
}

func (s *Store) putKV(ns uint16, key, val []byte, at int64) error {
	if s.exp == nil {
		return core.ErrWrongMode
	}
	if err := s.tbl.CheckKV(ns, key, val, true); err != nil {
		return err
	}
	_, seq, err := s.kv.Set(ns, key, val, s.tbl.HashOfKV(ns, key), at, 0)
	return s.synced(seq, err)
}

// ExpireAt sets key's absolute deadline, reporting whether the key
// existed. A deadline at or before now deletes the key immediately
// (Redis EXPIRE-with-the-past semantics) and still reports true.
func (s *Store) ExpireAt(ns uint16, key []byte, at time.Time) (bool, error) {
	if s.exp == nil {
		return false, core.ErrWrongMode
	}
	if err := s.tbl.CheckKV(ns, key, nil, false); err != nil {
		return false, err
	}
	found, seq, err := s.kv.ExpireAt(ns, key, s.tbl.HashOfKV(ns, key), at.UnixMilli())
	return found, s.synced(seq, err)
}

// Expire sets a relative TTL on a live key; sugar over ExpireAt.
func (s *Store) Expire(ns uint16, key []byte, ttl time.Duration) (bool, error) {
	if s.exp == nil {
		return false, core.ErrWrongMode
	}
	return s.ExpireAt(ns, key, time.UnixMilli(s.exp.Now()+ttl.Milliseconds()))
}

// Persist removes key's deadline, reporting whether one was removed.
func (s *Store) Persist(ns uint16, key []byte) (bool, error) {
	if s.exp == nil {
		return false, core.ErrWrongMode
	}
	removed, seq, err := s.kv.Persist(ns, key, s.tbl.HashOfKV(ns, key))
	return removed, s.synced(seq, err)
}

// TTL reports key's remaining TTL: (ttl, true, true) with a deadline,
// (0, false, true) for a live key without one, (0, false, false) for a
// missing or expired key.
func (s *Store) TTL(ns uint16, key []byte) (ttl time.Duration, hasTTL, exists bool) {
	if s.exp == nil {
		return 0, false, false
	}
	rem, hasTTL, exists := s.kv.TTL(ns, key, s.tbl.HashOfKV(ns, key))
	return time.Duration(rem) * time.Millisecond, hasTTL, exists
}

// GetKV reads key with lazy expiry: an expired key is deleted and
// answers as a miss. The value is a copy, valid indefinitely.
func (s *Store) GetKV(ns uint16, key []byte) ([]byte, bool) {
	if s.exp == nil {
		return nil, false
	}
	v, ok := s.kv.Get(ns, key, s.tbl.HashOfKV(ns, key), s.exp.Now())
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// DeleteKV removes key, durable on return; expired keys count as already
// gone.
func (s *Store) DeleteKV(ns uint16, key []byte) (bool, error) {
	if s.exp == nil {
		return false, core.ErrWrongMode
	}
	deleted, seq, err := s.kv.Delete(ns, key, s.tbl.HashOfKV(ns, key))
	return deleted, s.synced(seq, err)
}
