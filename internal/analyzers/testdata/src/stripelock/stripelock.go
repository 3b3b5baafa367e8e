// Fixture for the stripelock pass: lazy expiry's check-then-delete
// must share one stripe-lock critical section, or a concurrent PUT
// between the deadline check and the delete kills live data. The
// deadline is a word of the pair's block: reading it unlocked is the
// read path's cheap pre-check, deleting on it is not.
package stripelock

import "sync"

type index struct{ mu [16]sync.Mutex }

func (ix *index) Lock(hash uint64) *sync.Mutex { return &ix.mu[hash&15] }

// Dead is the pre-check: a deadline word against a clock sample.
func Dead(meta uint64, now int64) bool { return meta != 0 && int64(meta) <= now }

type handle struct{}

func (h *handle) GetKVMeta(key []byte, hash uint64) ([]byte, uint64, bool) { return nil, 0, false }
func (h *handle) DeleteKVHashed(key []byte, hash uint64) bool              { return true }
func (h *handle) UpsertKVHashed(key []byte, hash uint64) error             { return nil }

// kvGet is a pipeline completion: the deadline comes with the value.
type kvGet struct {
	Key  []byte
	Meta uint64
}

type store struct {
	exp  *index
	h    *handle
	dead [][]byte
}

// expireGood: check and delete share the stripe span.
func (s *store) expireGood(key []byte, hash uint64) {
	mu := s.exp.Lock(hash)
	mu.Lock()
	if _, at, ok := s.h.GetKVMeta(key, hash); ok && Dead(at, 0) {
		s.h.DeleteKVHashed(key, hash)
	}
	mu.Unlock()
}

// expireDeferGood: a deferred Unlock covers through return.
func (s *store) expireDeferGood(key []byte, hash uint64) {
	mu := s.exp.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	if _, at, ok := s.h.GetKVMeta(key, hash); ok && Dead(at, 0) {
		s.h.DeleteKVHashed(key, hash)
	}
}

// expireBadNoLock is the race: check-then-delete with no stripe at all.
func (s *store) expireBadNoLock(key []byte, hash uint64) {
	if _, at, ok := s.h.GetKVMeta(key, hash); ok && Dead(at, 0) {
		s.h.DeleteKVHashed(key, hash) // want `without acquiring its expiry stripe lock`
	}
}

// expireBadOutside: the decision is made under the stripe but the
// delete escapes it (unlock-before-use).
func (s *store) expireBadOutside(key []byte, hash uint64) {
	mu := s.exp.Lock(hash)
	mu.Lock()
	dead := false
	if _, at, ok := s.h.GetKVMeta(key, hash); ok && Dead(at, 0) {
		dead = true
	}
	mu.Unlock()
	if dead {
		s.h.DeleteKVHashed(key, hash) // want `outside the expiry stripe-lock span`
	}
}

// expireLocked: *Locked helpers run under the caller's stripe.
func (s *store) expireLocked(key []byte, hash uint64) {
	if _, at, ok := s.h.GetKVMeta(key, hash); ok && Dead(at, 0) {
		s.h.DeleteKVHashed(key, hash)
	}
}

// deleteOnly: deletes with no deadline consultation are not expiry.
func (s *store) deleteOnly(key []byte, hash uint64) {
	s.h.DeleteKVHashed(key, hash)
}

// The TTL'd-KV state machine's stripe-held helper: a deadline read and
// a delete in one call.
func (s *store) readLocked(key []byte, hash uint64) bool { return false }

// Expired is the locked half of lazy expiry.
func (s *store) Expired(key []byte, hash uint64) bool {
	mu := s.exp.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	return s.readLocked(key, hash)
}

// deleteGood: the public operation takes the stripe, then calls down.
func (s *store) deleteGood(key []byte, hash uint64) bool {
	mu := s.exp.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	return !s.readLocked(key, hash) && s.h.DeleteKVHashed(key, hash)
}

// deleteBadHelper calls the stripe-held helper with no stripe held.
func (s *store) deleteBadHelper(key []byte, hash uint64) bool {
	return s.readLocked(key, hash) // want `without acquiring its expiry stripe lock`
}

// upsertBad: a replace is a delete; on a consulted deadline it needs the
// stripe like one.
func (s *store) upsertBad(key []byte, hash uint64) {
	if _, at, ok := s.h.GetKVMeta(key, hash); ok && at != 0 {
		s.h.UpsertKVHashed(key, hash) // want `without acquiring its expiry stripe lock`
	}
}

// completeGood is the read path: the unlocked look at the completion's
// deadline answers the miss and queues the key; nothing is deleted here.
func (s *store) completeGood(g *kvGet, now int64) bool {
	if Dead(g.Meta, now) {
		s.dead = append(s.dead, g.Key)
		return false
	}
	return true
}

// reapGood: the queued keys go through the locked operation.
func (s *store) reapGood(hash uint64) {
	for _, key := range s.dead {
		s.Expired(key, hash)
	}
}

// completeBad deletes on the pre-check: the deadline it read may have
// been replaced by a SET since.
func (s *store) completeBad(g *kvGet, now int64, hash uint64) bool {
	if Dead(g.Meta, now) {
		s.h.DeleteKVHashed(g.Key, hash) // want `without acquiring its expiry stripe lock`
		return false
	}
	return true
}

// precheckThenLockGood: pre-check unlocked, then re-check and delete
// under the stripe.
func (s *store) precheckThenLockGood(g *kvGet, now int64, hash uint64) {
	if !Dead(g.Meta, now) {
		return
	}
	mu := s.exp.Lock(hash)
	mu.Lock()
	if _, at, ok := s.h.GetKVMeta(g.Key, hash); ok && Dead(at, now) {
		s.h.DeleteKVHashed(g.Key, hash)
	}
	mu.Unlock()
}
