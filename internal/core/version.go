package core

import "sync"

// Per-key version tracking (opt-in via Config.TrackVersions): a striped
// map counting the mutations applied to each key. The cluster layer uses
// it as the last-write-wins arbiter for online resharding and
// anti-entropy — two replicas of a key that disagree on its value can be
// ordered by which one has applied more writes.
//
// The count is bumped at the COMMIT point of every mutation path — the
// dwcas in putInAt, the publishing header CAS in finalizeInsert, the
// invalidating CAS in deleteInAt, a shadow commit, and their
// single-thread twins — so the synchronous, batched and pipelined APIs
// all feed one counter. Resize migration does not bump: moving a key
// between indexes is not a logical mutation. A deleted key keeps its
// counter (the tombstone's version), which is what lets anti-entropy
// order a delete against a stale surviving copy.
//
// The counter is deliberately NOT linearizable with the slot contents: a
// reader pairing VersionOf with Get can bracket the Get between two
// VersionOf calls to detect a concurrent mutation (the server's GetVer
// does), but a torn pair survives a bounded retry. That is the
// Dynamo-grade precision resharding needs, at a cost the paper's hot
// paths never pay when the feature is off: one nil check.
//
// WAL replay drives the normal Handle ops, so a durable table rebuilds
// its version index faithfully on restart; snapshot compaction (which
// collapses a key's history to one record) shrinks replayed counts, so
// cross-replica comparisons treat equal values as converged regardless
// of count.

// verStripes is the number of locks the version map is striped over.
// Power of two; sized so independent writers rarely collide.
const verStripes = 128

// verIndex is the striped mutation counter.
type verIndex struct {
	stripes [verStripes]verStripe
}

type verStripe struct {
	mu sync.Mutex
	m  map[uint64]uint64
	// dlht:ok:fieldalignment — pad each stripe to its own cache line so
	// counter bumps on different stripes don't false-share.
	_ [40]byte
}

func newVerIndex() *verIndex {
	v := &verIndex{}
	for i := range v.stripes {
		v.stripes[i].m = make(map[uint64]uint64)
	}
	return v
}

func (v *verIndex) stripe(key uint64) *verStripe {
	// Fibonacci mix: sequential keys land on distinct stripes.
	return &v.stripes[(key*0x9e3779b97f4a7c15)>>57&(verStripes-1)]
}

// bump increments key's mutation count.
func (v *verIndex) bump(key uint64) {
	s := v.stripe(key)
	s.mu.Lock()
	s.m[key]++
	s.mu.Unlock()
}

// get returns key's mutation count (0 if the key was never mutated).
func (v *verIndex) get(key uint64) uint64 {
	s := v.stripe(key)
	s.mu.Lock()
	n := s.m[key]
	s.mu.Unlock()
	return n
}

// bumpVer records one applied mutation of key when tracking is enabled.
// The nil check is the entire disabled-mode cost.
func (t *Table) bumpVer(key uint64) {
	if t.vers != nil {
		t.vers.bump(key)
	}
}

// VersionOf returns key's applied-mutation count, or 0 when the table
// was built without Config.TrackVersions. The count survives deletes
// (the tombstone's version) and, on durable tables, restarts — WAL
// replay re-applies the same mutations.
func (h *Handle) VersionOf(key uint64) uint64 {
	if h.t.vers == nil {
		return 0
	}
	return h.t.vers.get(key)
}

// GetVer is the versioned read behind VersionReader: key's value and the
// applied-mutation count it belongs to. The Get is bracketed by two
// VersionOf reads; equal brackets mean no mutation committed between them,
// so the pair is consistent. A handful of retries rides out a write burst;
// the final attempt is returned unbracketed (anti-entropy tolerates a
// stale pair — the racing write re-journals or a later scrub pass
// converges it).
func (h *Handle) GetVer(key uint64) (val uint64, ok bool, ver uint64) {
	ver = h.VersionOf(key)
	for i := 0; i < 4; i++ {
		val, ok = h.Get(key)
		after := h.VersionOf(key)
		if after == ver {
			break
		}
		ver = after
	}
	return val, ok, ver
}
