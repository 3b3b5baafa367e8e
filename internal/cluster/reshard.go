package cluster

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/server"

	core "repro/internal/core"
)

// This file is the online resharding coordinator: AddShard, RemoveShard
// and ReplaceShard change cluster membership with zero downtime. A
// membership change runs in phases, each published as a new ring
// generation and fenced by a quiesce (no instance still routes on an
// older view):
//
//	normal → handoff → sealed → flip (normal, epoch+1)
//
// Handoff: clients keep serving from the OLD ring, but every write whose
// replica set differs on the target ring journals its key and
// double-writes to the incoming owners. Meanwhile the coordinator streams
// each moving key from its current owner to its new owners (bulk copy),
// skipping journaled keys — those are racing with live writes and will be
// re-copied from scratch.
//
// Sealed: writes to moving ranges briefly block (reads never do); once
// every instance has observed the seal, the remaining journal is copied
// authoritatively — each key re-read from its current owners, the
// freshest replica winning by write-version (last-write-wins; enable
// core.Config.TrackVersions on the shards for exact version ordering,
// otherwise the primary-most live copy wins).
//
// Flip: the target ring becomes the serving ring in one atomic publish,
// the epoch increments, and removed shards leave the ring. Old owners
// retain stale copies of moved ranges — harmless, they are no longer in
// any replica set — and removed shards can be decommissioned as soon as
// their in-flight operations drain (the post-flip quiesce).
//
// A failed reshard rolls back to the old ring: correctness is preserved
// (the old ring never stopped serving), but shards that were bulk-copy
// destinations may retain partial data. Wipe an added shard (restart it
// empty) before retrying its AddShard, or a key deleted between the two
// attempts could resurrect.
type reshardPlan struct {
	names       []string // extended slot table (grow-only)
	deadServing []bool   // membership during handoff: adds not yet members
	deadTarget  []bool   // membership after the flip
	removeSlots []int
	nextRing    []ringPoint
}

// AddShard adds a named shard to the cluster online, migrating the ring
// arcs it acquires. The shard should be empty: bulk copy overwrites
// blindly (last write wins at equal versions).
func (t *Topology) AddShard(name string) error { return t.reshard([]string{name}, nil) }

// RemoveShard removes a named shard online, first migrating the ranges it
// primaries (and re-replicating what it backed) to the surviving shards.
// The shard must stay reachable until RemoveShard returns.
func (t *Topology) RemoveShard(name string) error { return t.reshard(nil, []string{name}) }

// ReplaceShard substitutes newName for oldName in one membership change —
// cheaper than remove-then-add, which would migrate most ranges twice.
func (t *Topology) ReplaceShard(oldName, newName string) error {
	return t.reshard([]string{newName}, []string{oldName})
}

// plan validates the membership change against tab and lays out the
// extended slot table and target ring.
func (t *Topology) plan(tab *ringTab, adds, removes []string) (*reshardPlan, error) {
	liveByName := make(map[string]int)
	for s, n := range tab.names {
		if !tab.dead[s] {
			liveByName[n] = s
		}
	}
	for i, a := range adds {
		if _, ok := liveByName[a]; ok {
			return nil, fmt.Errorf("cluster: shard %q is already a member", a)
		}
		for _, b := range adds[:i] {
			if a == b {
				return nil, fmt.Errorf("cluster: duplicate shard %q in change", a)
			}
		}
	}
	p := &reshardPlan{}
	for _, r := range removes {
		s, ok := liveByName[r]
		if !ok {
			return nil, fmt.Errorf("cluster: shard %q is not a member", r)
		}
		p.removeSlots = append(p.removeSlots, s)
	}
	liveAfter := len(liveByName) - len(removes) + len(adds)
	if liveAfter < t.replicas {
		return nil, fmt.Errorf("cluster: change leaves %d shards, fewer than Replicas %d", liveAfter, t.replicas)
	}
	p.names = append(append([]string(nil), tab.names...), adds...)
	p.deadServing = append([]bool(nil), tab.dead...)
	for range adds {
		p.deadServing = append(p.deadServing, true) // not members until the flip
	}
	p.deadTarget = append([]bool(nil), p.deadServing...)
	for s := len(tab.names); s < len(p.names); s++ {
		p.deadTarget[s] = false
	}
	for _, s := range p.removeSlots {
		p.deadTarget[s] = true
	}
	p.nextRing = buildRing(t.hb, t.vnodes, p.names, p.deadTarget)
	return p, nil
}

// reshard executes one membership change end to end. Serialized by t.mu;
// see the file comment for the phase machine.
func (t *Topology) reshard(adds, removes []string) error {
	if len(adds) == 0 && len(removes) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.openAdmin == nil {
		return errors.New("cluster: membership is frozen (no OpenShard configured)")
	}
	tab := t.tab.Load()
	p, err := t.plan(tab, adds, removes)
	if err != nil {
		return err
	}
	// Grow the detector BEFORE the first publish referencing new slots.
	t.det.grow(len(p.names))

	publish := func(phase int, epoch uint64, dead []bool, ring, next []ringPoint) *ringTab {
		cur := t.tab.Load()
		nt := &ringTab{
			gen: cur.gen + 1, epoch: epoch, phase: phase,
			names: p.names, dead: dead, ring: ring, next: next,
		}
		t.tab.Store(nt)
		return nt
	}
	rollback := func(err error) error {
		t.swapJournal(nil)
		rt := publish(phaseNormal, tab.epoch, p.deadServing, tab.ring, nil)
		// Best-effort: don't leave instances parked on a sealed view.
		_ = t.quiesce(rt.gen)
		return fmt.Errorf("cluster: reshard aborted: %w", err)
	}

	// Handoff: open the journal first so no double-written key can miss it.
	t.swapJournal(make(map[uint64]struct{}))
	ht := publish(phaseHandoff, tab.epoch, p.deadServing, tab.ring, p.nextRing)
	if err := t.quiesce(ht.gen); err != nil {
		return rollback(err)
	}

	if err := t.bulkCopy(ht); err != nil {
		return rollback(err)
	}

	// Shrink rounds: drain the journal while writes still flow, so the
	// sealed window only has to cover the final sliver.
	for round := 0; round < 2; round++ {
		prev := t.swapJournal(make(map[uint64]struct{}))
		if len(prev) == 0 {
			break
		}
		if err := t.copyJournal(ht, prev); err != nil {
			return rollback(err)
		}
	}

	// Seal: moving-range writes now block; once quiesced, the journal is
	// frozen and the final copy below is authoritative.
	st := publish(phaseSealed, tab.epoch, p.deadServing, tab.ring, p.nextRing)
	if err := t.quiesce(st.gen); err != nil {
		return rollback(err)
	}
	final := t.swapJournal(nil)
	if err := t.copyJournal(ht, final); err != nil {
		return rollback(err)
	}

	// Flip: the target ring starts serving, atomically, for everyone.
	ft := publish(phaseNormal, tab.epoch+1, p.deadTarget, p.nextRing, nil)
	// Drain: wait for in-flight old-ring operations so removed shards are
	// safe to decommission when we return. Non-fatal — the flip is done.
	_ = t.quiesce(ft.gen)
	for _, s := range p.removeSlots {
		t.det.ok(s) // stop the prober from chasing a decommissioned shard
	}
	return nil
}

// bulkCopy streams every moving key from its current owner to its new
// owners. Each key is processed by exactly one source — the first
// AVAILABLE replica in rank order — so a source crashing mid-copy (even
// kill -9) only shifts its keys to the surviving replicas: the sweep
// retries until a full pass completes with a stable source set. Keys
// journaled by concurrent writes are skipped here; the journal passes
// re-copy them authoritatively.
func (t *Topology) bulkCopy(tab *ringTab) error {
	serving := tab.live()
	avail := make([]bool, len(tab.names))
	for _, s := range serving {
		avail[s] = true
	}
	var lastErr error
	// Each failed sweep marks at least one source unavailable, so
	// len(serving)+1 sweeps suffice to reach a stable set.
	for sweep := 0; sweep <= len(serving); sweep++ {
		clean := true
		for _, src := range serving {
			if !avail[src] {
				continue
			}
			fatal, err := t.scanAndCopy(tab, src, avail)
			if err == nil {
				continue
			}
			if fatal {
				return err
			}
			// Source became unreachable: exclude it and re-sweep — its
			// keys fall to the next-rank replicas.
			avail[src] = false
			clean = false
			lastErr = err
		}
		if clean {
			for _, s := range serving {
				if avail[s] {
					return nil
				}
			}
			return fmt.Errorf("cluster: no migration source reachable: %w", lastErr)
		}
	}
	return fmt.Errorf("cluster: bulk copy could not stabilize: %w", lastErr)
}

// scanAndCopy walks src's table and copies the keys src is responsible
// for (first available owner in rank order) to their new owners. fatal
// reports a destination failure — the reshard cannot proceed without its
// destinations — while a plain error marks the source unavailable.
func (t *Topology) scanAndCopy(tab *ringTab, src int, avail []bool) (fatal bool, err error) {
	s, err := t.admin.get(src)
	if err != nil {
		return false, err
	}
	sc, ok := s.(core.Scanner)
	if !ok {
		return true, fmt.Errorf("cluster: shard %q store cannot scan (no core.Scanner); migration needs it", tab.names[src])
	}
	var oldBuf, newBuf [maxReplicaStack]int
	var cur core.Cursor
	for {
		ents, next, done, err := sc.ScanStep(cur, server.MaxScanBatch)
		if err != nil {
			t.admin.drop(src)
			return false, err
		}
		cur = next
		for _, e := range ents {
			h := t.keyh(e.Key)
			owners := replicasOn(tab.ring, h, t.replicas, oldBuf[:0])
			first := -1
			for _, o := range owners {
				if avail[o] {
					first = o
					break
				}
			}
			if first != src {
				continue // another source owns this key's copy duty
			}
			if t.journaled(e.Key) {
				continue // racing with live writes; journal pass re-copies
			}
			// The scanned value is the winner; bulk copy does not re-read.
			w := replicaCopy{val: e.Value, has: true}
			wrote, err := t.admin.write(e.Key, &w, t.incoming(tab, h, owners, newBuf[:0]), nil)
			if err != nil {
				return true, err
			}
			if wrote {
				t.moved.Add(1)
			}
		}
		if done {
			return false, nil
		}
	}
}

// incoming appends to buf[:0] the slots of h's replica set on tab's
// target ring that are not among owners, its serving-ring owners: the
// destinations a moving key is copied to. A current owner already has the
// live write path's copy.
func (t *Topology) incoming(tab *ringTab, h uint64, owners, buf []int) []int {
	out := buf[:0]
	for _, d := range replicasOn(tab.next, h, t.replicas, buf[:0]) {
		if !slices.Contains(owners, d) {
			out = append(out, d) // in place: out never passes the read index
		}
	}
	return out
}

// copyJournal re-copies each journaled key from scratch: converge reads
// every reachable current owner, picks the freshest copy by the rule the
// scrubber applies too (fresher), and writes it to the new owners, as a
// write or as a delete. Runs both during handoff (shrink rounds, results
// may be immediately stale — the next round catches that) and under seal
// (authoritative: moving-range writers are blocked and quiesced).
func (t *Topology) copyJournal(tab *ringTab, keys map[uint64]struct{}) error {
	var oldBuf, newBuf [maxReplicaStack]int
	for key := range keys {
		h := t.keyh(key)
		owners := replicasOn(tab.ring, h, t.replicas, oldBuf[:0])
		found, wrote, err := t.admin.converge(key, owners, t.incoming(tab, h, owners, newBuf[:0]))
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("cluster: no replica of journaled key %#x reachable", key)
		}
		if wrote {
			t.moved.Add(1)
		}
	}
	return nil
}
