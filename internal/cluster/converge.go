package cluster

import (
	"errors"
	"fmt"

	core "repro/internal/core"
)

// This file is the cluster's one copy path. The reshard journal catch-up
// (copyJournal) and scrub repair (repairKey) both converge a key: read
// its copy on each source slot, pick the freshest in rank order, and
// write the winner to each destination slot. The reshard bulk copy
// (scanAndCopy) writes its scanned value through the same write half.

// shardStores is one owner's connection per shard slot, opened on first
// use and dropped after a transport failure (the next use reopens it). A
// Store is per-goroutine, so each owner keeps its own set: a client
// instance, the reshard coordinator (under Topology.mu) and the scrubber
// goroutine.
type shardStores struct {
	t    *Topology
	open func(name string) (core.Store, error) // nil: membership is frozen
	m    map[int]core.Store
}

// get returns the connection for slot, opening it lazily.
func (ss *shardStores) get(slot int) (core.Store, error) {
	if s := ss.m[slot]; s != nil {
		return s, nil
	}
	if ss.open == nil {
		return nil, errors.New("cluster: membership is frozen (no OpenShard configured)")
	}
	s, err := ss.open(ss.t.tab.Load().names[slot])
	if err != nil {
		return nil, err
	}
	if ss.m == nil {
		ss.m = make(map[int]core.Store)
	}
	ss.m[slot] = s
	return s, nil
}

// drop closes and forgets slot's connection.
func (ss *shardStores) drop(slot int) {
	if s := ss.m[slot]; s != nil {
		s.Close()
		delete(ss.m, slot)
	}
}

// close closes every open connection and returns the first error.
func (ss *shardStores) close() error {
	var first error
	for _, s := range ss.m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	ss.m = nil
	return first
}

// replicaCopy is one slot's copy of a key: its value and presence, and
// its write version (0 on a store without core.Config.TrackVersions).
// failed marks a slot whose open or read failed; it holds no copy.
type replicaCopy struct {
	slot   int
	val    uint64
	ver    uint64
	has    bool
	failed bool
}

// same reports whether c holds what w holds.
func (c *replicaCopy) same(w *replicaCopy) bool {
	return c.has == w.has && (!c.has || c.val == w.val)
}

// readCopy reads key's copy on slot, dropping the connection on a failed
// read.
func (ss *shardStores) readCopy(slot int, key uint64) replicaCopy {
	c := replicaCopy{slot: slot, failed: true}
	s, err := ss.get(slot)
	if err != nil {
		return c
	}
	if vr, ok := s.(core.VersionReader); ok {
		c.val, c.has, c.ver, err = vr.GetVer(key)
	} else {
		c.val, c.has, err = s.Get(key)
	}
	if err != nil {
		ss.drop(slot)
		return c
	}
	c.failed = false
	return c
}

// fresher is the cluster's one last-write-wins rule: whether copy c beats
// best, the winner so far among copies read in replica rank order. The
// higher write version wins; a tie keeps the primary-most copy, except
// with no version information at all (both 0), where a copy that has the
// key beats one that lacks it: a resurrected delete can be deleted again,
// a lost acked write cannot.
func fresher(c, best *replicaCopy) bool {
	return c.ver > best.ver || (c.ver == best.ver && best.ver == 0 && c.has && !best.has)
}

// converge reads key's copy on each slot of srcs (in rank order, as
// fresher expects), picks the winner, and writes it to each slot of dsts
// (see write). found reports whether any source answered; with none,
// nothing is written.
func (ss *shardStores) converge(key uint64, srcs, dsts []int) (found, wrote bool, err error) {
	var buf [maxReplicaStack]replicaCopy
	read := buf[:0]
	best := -1
	for _, s := range srcs {
		c := ss.readCopy(s, key)
		read = append(read, c)
		if !c.failed && (best < 0 || fresher(&c, &read[best])) {
			best = len(read) - 1
		}
	}
	if best < 0 {
		return false, false, nil
	}
	wrote, err = ss.write(key, &read[best], dsts, read)
	return true, wrote, err
}

// write makes each slot of dsts hold w, the winning copy of key: an
// upsert if w holds the key, a delete if it does not. A destination that
// was read (it is in read) is skipped when its copy already equals w or
// its read failed. A failed write drops the connection and moves on to
// the next destination; the first failure is returned. wrote reports
// whether any destination was written.
func (ss *shardStores) write(key uint64, w *replicaCopy, dsts []int, read []replicaCopy) (wrote bool, first error) {
next:
	for _, d := range dsts {
		for i := range read {
			if read[i].slot == d && (read[i].failed || read[i].same(w)) {
				continue next
			}
		}
		s, err := ss.get(d)
		switch {
		case err != nil:
		case !w.has:
			_, _, err = s.Delete(key) // a miss is fine: nothing to erase
		default:
			// DLHT's Put is update-only and Insert the only create, so an
			// upsert is a bounded Put/Insert race.
			for i := 0; i < 4; i++ {
				var ok bool
				if _, ok, err = s.Put(key, w.val); err != nil || ok {
					break
				}
				if _, ok, err = s.Insert(key, w.val); err != nil || ok {
					break
				}
				err = errNoUpsert // lost the create to a concurrent insert: Put again
			}
		}
		if err != nil {
			ss.drop(d)
			if first == nil {
				first = fmt.Errorf("cluster: destination %q: %w", ss.t.tab.Load().names[d], err)
			}
			continue
		}
		wrote = true
	}
	return wrote, first
}

var errNoUpsert = errors.New("cluster: upsert did not converge")
