// Fixture for the stripelock pass: lazy expiry's check-then-delete
// must share one stripe-lock critical section, or a concurrent PUT
// between the deadline check and the delete kills live data.
package stripelock

import "sync"

type index struct{ mu [16]sync.Mutex }

func (ix *index) Lock(hash uint64) *sync.Mutex                   { return &ix.mu[hash&15] }
func (ix *index) Deadline(key []byte, hash uint64) (int64, bool) { return 0, false }
func (ix *index) Remove(key []byte, hash uint64) bool            { return false }

type handle struct{}

func (h *handle) DeleteKVHashed(key []byte, hash uint64) bool  { return true }
func (h *handle) UpsertKVHashed(key []byte, hash uint64) error { return nil }

type store struct {
	exp *index
	h   *handle
}

// expireGood: check and delete share the stripe span.
func (s *store) expireGood(key []byte, hash uint64) {
	mu := s.exp.Lock(hash)
	mu.Lock()
	if at, ok := s.exp.Deadline(key, hash); ok && at <= 0 {
		s.h.DeleteKVHashed(key, hash)
		s.exp.Remove(key, hash)
	}
	mu.Unlock()
}

// expireDeferGood: a deferred Unlock covers through return.
func (s *store) expireDeferGood(key []byte, hash uint64) {
	mu := s.exp.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	if at, ok := s.exp.Deadline(key, hash); ok && at <= 0 {
		s.h.DeleteKVHashed(key, hash)
	}
}

// expireBadNoLock is the race: check-then-delete with no stripe at all.
func (s *store) expireBadNoLock(key []byte, hash uint64) {
	if at, ok := s.exp.Deadline(key, hash); ok && at <= 0 {
		s.h.DeleteKVHashed(key, hash) // want `without acquiring its expiry stripe lock`
	}
}

// expireBadOutside: the decision is made under the stripe but the
// delete escapes it (unlock-before-use).
func (s *store) expireBadOutside(key []byte, hash uint64) {
	mu := s.exp.Lock(hash)
	mu.Lock()
	dead := false
	if at, ok := s.exp.Deadline(key, hash); ok && at <= 0 {
		dead = true
	}
	mu.Unlock()
	if dead {
		s.h.DeleteKVHashed(key, hash) // want `outside the expiry stripe-lock span`
	}
}

// expireLocked: *Locked helpers run under the caller's stripe.
func (s *store) expireLocked(key []byte, hash uint64) {
	if at, ok := s.exp.Deadline(key, hash); ok && at <= 0 {
		s.h.DeleteKVHashed(key, hash)
	}
}

// deleteOnly: deletes with no deadline consultation are not expiry.
func (s *store) deleteOnly(key []byte, hash uint64) {
	s.h.DeleteKVHashed(key, hash)
}

// The TTL'd-KV state machine's stripe-held helper: a deadline check and
// a delete in one call.
func (s *store) expiredLocked(key []byte, hash uint64) bool { return false }

// deleteGood: the public operation takes the stripe, then calls down.
func (s *store) deleteGood(key []byte, hash uint64) bool {
	mu := s.exp.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	return !s.expiredLocked(key, hash) && s.h.DeleteKVHashed(key, hash)
}

// deleteBadHelper calls the stripe-held helper with no stripe held.
func (s *store) deleteBadHelper(key []byte, hash uint64) bool {
	return s.expiredLocked(key, hash) // want `without acquiring its expiry stripe lock`
}

// upsertBad: a replace is a delete; on a consulted deadline it needs the
// stripe like one.
func (s *store) upsertBad(key []byte, hash uint64) {
	if _, ok := s.exp.Deadline(key, hash); ok {
		s.h.UpsertKVHashed(key, hash) // want `without acquiring its expiry stripe lock`
	}
}
