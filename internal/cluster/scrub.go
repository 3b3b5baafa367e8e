package cluster

import (
	"errors"
	"time"

	core "repro/internal/core"
)

// This file is the anti-entropy layer. Under W < R a write can complete
// without reaching every replica, and a shard that was down misses whole
// write windows; redial-and-retry brings the shard back but nothing in
// the data path rewrites what it missed. Two mechanisms converge it:
//
// Read repair: a read served by a lower-rank replica (the primary was
// down or failed over) may have raced a divergent write, so the data path
// nudges the scrubber (Topology.noteDivergence) and the key is re-read
// from every replica and repaired out of band — reads never block on
// repair.
//
// Scrubbing: a low-rate background pass walks each shard's table,
// comparing every owned key across its replica set and rewriting stale
// copies, so a re-admitted replica converges even if no client ever reads
// the keys it missed. The failure detector's down→up transition kicks a
// targeted pass (only ranges the revived shard replicates) immediately.
//
// Conflict resolution is last-write-wins by per-key write version when
// the shards track one (core.Config.TrackVersions, served over OpGetVer);
// version-less stores fall back to presence-first, primary-most — a
// deliberate bias against deleting data it cannot order.

// scrubBatch is the number of entries the scrubber scans per step.
const scrubBatch = 512

// ScrubOpts tunes the background scrubber.
type ScrubOpts struct {
	// Interval between full anti-entropy passes (default 5s).
	Interval time.Duration
	// Pace is the sleep between scan steps, bounding scrub pressure on
	// the data path (default 1ms).
	Pace time.Duration
}

func (o ScrubOpts) norm() ScrubOpts {
	if o.Interval <= 0 {
		o.Interval = 5 * time.Second
	}
	if o.Pace <= 0 {
		o.Pace = time.Millisecond
	}
	return o
}

// scrubber is the background anti-entropy worker. It owns its shard
// connections (independent of the coordinator's, which live under the
// membership lock) and is the sole receiver of divergence notes and
// detector up-kicks.
type scrubber struct {
	t       *Topology
	opts    ScrubOpts
	stores  shardStores
	repairs chan uint64
	stop    chan struct{}
	done    chan struct{}
}

// StartScrub launches the background scrubber (idempotent). It requires
// shard connections of its own, so the Topology must be able to open
// stores (a dialed cluster, or New with Opts.OpenShard).
func (t *Topology) StartScrub(opts ScrubOpts) error {
	if t.openAdmin == nil {
		return errors.New("cluster: scrubber needs openable shards (Dial, or Opts.OpenShard)")
	}
	t.scrubMu.Lock()
	defer t.scrubMu.Unlock()
	if t.scrub != nil {
		return nil
	}
	sb := &scrubber{
		t:       t,
		opts:    opts.norm(),
		stores:  shardStores{t: t, open: t.openAdmin},
		repairs: make(chan uint64, 256),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	t.scrub = sb
	go sb.run()
	return nil
}

// stopScrub halts and discards the scrubber, if one is running.
func (t *Topology) stopScrub() {
	t.scrubMu.Lock()
	sb := t.scrub
	t.scrub = nil
	t.scrubMu.Unlock()
	if sb == nil {
		return
	}
	close(sb.stop)
	<-sb.done
	sb.stores.close()
}

// noteDivergence hands a possibly-divergent key to the scrubber for
// background read repair. Non-blocking and lossy: with no scrubber
// running, or a full queue, the note is dropped — the periodic pass is
// the backstop.
func (t *Topology) noteDivergence(key uint64) {
	t.scrubMu.Lock()
	sb := t.scrub
	t.scrubMu.Unlock()
	if sb == nil {
		return
	}
	select {
	case sb.repairs <- key:
	default:
	}
}

func (sb *scrubber) run() {
	defer close(sb.done)
	tick := time.NewTicker(sb.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-sb.stop:
			return
		case key := <-sb.repairs:
			sb.repairKey(key)
		case slot := <-sb.t.upCh:
			// A replica came back: converge just the ranges it carries,
			// now, instead of waiting out the ticker.
			sb.pass(slot)
		case <-tick.C:
			sb.pass(-1)
		}
	}
}

// pass walks every live shard's table and repairs each owned key across
// its replica set. target >= 0 restricts the pass to keys replicated on
// that slot (the detector's re-admission kick). The pass yields between
// scan steps, drains queued read-repair notes, and aborts on a ring
// change — a reshard makes its view stale.
func (sb *scrubber) pass(target int) {
	tab := sb.t.tab.Load()
	if tab.phase != phaseNormal {
		return // resharding owns data movement until the flip
	}
	var buf [maxReplicaStack]int
	for slot := range tab.names {
		select {
		case <-sb.stop:
			return
		default:
		}
		if tab.dead[slot] {
			continue
		}
		s, err := sb.stores.get(slot)
		if err != nil {
			continue // down shard: its ranges are covered from the other owners
		}
		sc, ok := s.(core.Scanner)
		if !ok {
			continue
		}
		var cur core.Cursor
		for {
			ents, next, done, err := sc.ScanStep(cur, scrubBatch)
			if err != nil {
				sb.stores.drop(slot)
				break
			}
			cur = next
			for _, e := range ents {
				owners := replicasOn(tab.ring, sb.t.keyh(e.Key), sb.t.replicas, buf[:0])
				mine, wanted := false, target < 0
				for _, o := range owners {
					if o == slot {
						mine = true
					}
					if o == target {
						wanted = true
					}
				}
				// Repair only keys this shard owns: leftovers from before
				// a reshard flip are unowned stale copies, not canon.
				// Replicated keys are checked once per owner — redundant
				// but idempotent, and dedup isn't worth the memory.
				if mine && wanted {
					sb.repairKey(e.Key)
				}
			}
			if done {
				break
			}
			// Pace the pass: sleep, serve queued read-repair notes, and
			// bail out if the ring moved underneath us.
			timer := time.NewTimer(sb.opts.Pace)
			for draining := true; draining; {
				select {
				case <-sb.stop:
					timer.Stop()
					return
				case key := <-sb.repairs:
					sb.repairKey(key)
				case <-timer.C:
					draining = false
				}
			}
			if sb.t.tab.Load().gen != tab.gen {
				return
			}
		}
	}
}

// repairKey re-reads key from every reachable owner and rewrites the
// stale copies with the winning version (converge, with the owners as
// both sources and destinations). No-op unless the ring is in its normal
// phase: reshard owns movement otherwise. Errors have dropped their
// connection; the next pass retries.
func (sb *scrubber) repairKey(key uint64) {
	tab := sb.t.tab.Load()
	if tab.phase != phaseNormal {
		return
	}
	var buf [maxReplicaStack]int
	owners := replicasOn(tab.ring, sb.t.keyh(key), sb.t.replicas, buf[:0])
	sb.stores.converge(key, owners, owners)
}
