// Package cluster shards one logical DLHT keyspace across N Stores with
// consistent hashing, presenting the union as a single Store. Each shard
// is any dlht Store backend — usually a dlht-server address
// (DialTopology, or Dial for a single owner), but in-process tables and
// nested clusters compose the same way (New), since routing only needs
// the Store surface. Shard connections open lazily, one set per owner
// (shardStores): a down member fails the ops routed to it, retryably,
// and never the constructor.
//
// Routing is a consistent-hash ring built from the shard *names* (not
// connection state), so a key's shard is stable across reconnects and
// process restarts as long as the shard set is unchanged, and adding or
// removing a shard remaps only the ring arcs adjacent to its virtual
// nodes. The ring is epoch-numbered and published through an atomic
// pointer: membership can change online (AddShard/RemoveShard/
// ReplaceShard on the Topology) with no downtime — writes to moving
// ranges double-write and journal during the handoff window, the journal
// is copied authoritatively under a brief per-range seal, and the ring
// flips atomically. See reshard.go for the coordinator and scrub.go for
// the anti-entropy that keeps replicas convergent; both move data through
// one copy body, converge (converge.go).
//
// The pipelined surface fans each enqueue out to its shard's Pipe and
// merges completions back in per-shard enqueue order. Because a key always
// routes to exactly one shard, per-key program order is preserved — the
// ordering contract that makes DLHT's batch API safe for lock managers
// (§3.3) survives sharding, weakened only from total order to per-shard
// order.
//
// There is one implementation of a replicated operation, repPipe
// (reppipe.go): replica walk, write quorum, detector feedback, read repair
// and the reshard handoff (journal, double-write, sealed-range wait) live
// there and nowhere else. The synchronous Get/Put/Insert/Delete are a pipe
// of one — enqueue, flush, return the completion (Cluster.sync) — so a
// sync write at R > 1 is enqueued on every replica before any is awaited.
// The one thing sync ops add is the per-op retry budget: a pipe fails an op
// once and heals on its next enqueue, so sync re-enqueues a retryable
// failure up to Opts.Retry.Max times with that policy's backoff.
package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/server"

	core "repro/internal/core"
)

// Opts configures a Cluster.
type Opts struct {
	// Table is the named server table a dialed cluster (DialTopology or
	// Dial) selects on every shard connection ("" = each server's default
	// table).
	Table string
	// VNodes is the number of virtual ring points per shard (default 64).
	// More points smooth the key distribution at the cost of a larger
	// routing table.
	VNodes int
	// Window is the per-shard Pipe window when the cluster's own Pipe is
	// opened with Window 0.
	Window int
	// ReadTimeout/WriteTimeout are each shard connection's deadlines on
	// a dialed cluster, whose connections open lazily on first use.
	ReadTimeout, WriteTimeout time.Duration

	// Replicas is the number of copies of each key: the key's arc owner
	// plus the next Replicas-1 distinct shards clockwise on the ring.
	// 0 or 1 means no replication. Must not exceed the shard count.
	Replicas int
	// WriteQuorum is how many replica acks a write needs before it
	// completes (0 = Replicas, i.e. write-all). With W = Replicas an
	// acked write survives any single-shard loss and reads never observe
	// a lost update after failover; with W < Replicas writes stay
	// available through Replicas-W shard failures at the cost of replica
	// divergence until read repair or the background scrubber (see
	// Topology.StartScrub) converges the laggards.
	WriteQuorum int
	// DownAfter is the failure detector's threshold: a shard is marked
	// down after this many consecutive retryable failures (default 3).
	// Down shards are skipped by read failover and write fan-out until a
	// background probe re-admits them.
	DownAfter int
	// ProbeInterval is the cadence at which down shards are probed for
	// re-admission (default 250ms). On a dialed cluster the probe dials
	// the shard address and closes — a member that was down from the
	// start is probed the same way; on a New cluster it is half-open — a
	// down shard is optimistically re-admitted after one interval and the
	// next real operation is its probe.
	ProbeInterval time.Duration
	// Retry is each shard connection's transparent redial policy and the
	// sync ops' per-op retry budget on a dialed cluster (see
	// Cluster.sync); a member that cannot be opened fails an op within
	// this budget. The zero value selects server.DefaultRetry —
	// replication is pointless over connections that stay broken after a
	// blip — set Max < 0 to disable retries entirely.
	Retry server.RetryPolicy

	// OpenShard opens a Store for a shard name, enabling online
	// membership changes on New-mode clusters (a dialed cluster dials
	// addresses and ignores it). The returned Store should implement
	// core.Scanner and core.VersionReader — the in-process
	// (*Table).Store does — or migration falls back to plain reads.
	// Without it, a New cluster's membership is frozen at construction.
	OpenShard func(name string) (core.Store, error)
}

const (
	defaultVNodes        = 64
	defaultDownAfter     = 3
	defaultProbeInterval = 250 * time.Millisecond
)

// Cluster consistent-hashes keys across the topology's member Stores and
// implements Store itself. Like every Store, a Cluster is a per-goroutine
// object; many Clusters can share one Topology (DialTopology +
// NewClient), and membership changes published there are picked up by
// every instance on its next operation.
type Cluster struct {
	topo   *Topology
	owned  bool // Close tears down the Topology too (New/Dial)
	stores shardStores
	window int

	// inflight/seenGen implement the reshard quiesce fence (see
	// Topology.quiesce): inflight counts operations admitted but not yet
	// delivered, seenGen is the latest ring generation this instance has
	// fully adopted. Both are maintained by repPipe.
	inflight atomic.Int64
	seenGen  atomic.Uint64

	// one is the sync ops' pipe (see sync), opened on first use; done is
	// its last completion, rng the backoff jitter state.
	one  *repPipe
	done core.Completion
	rng  uint64
}

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by a shard slot.
type ringPoint struct {
	h     uint64
	shard int
}

var _ core.Store = (*Cluster)(nil)

// New builds a Cluster over pre-opened stores. names give the shards their
// ring identities — routing depends only on them, so reconnecting a shard
// (or pointing the same name at a replacement store) preserves every
// key→shard assignment. Close closes the member stores. With
// Opts.OpenShard set, membership can change online (see Topology).
func New(names []string, stores []core.Store, opts Opts) (*Cluster, error) {
	if len(names) != len(stores) {
		return nil, fmt.Errorf("cluster: %d names for %d stores", len(names), len(stores))
	}
	t, err := newTopology(names, opts, nil, opts.OpenShard, opts.OpenShard)
	if err != nil {
		return nil, err
	}
	c, _ := t.NewClient()
	c.owned = true
	c.stores.m = make(map[int]core.Store, len(stores))
	for slot, s := range stores {
		c.stores.m[slot] = s
	}
	return c, nil
}

// Dial builds a Cluster over addrs with the addresses as shard names: a
// DialTopology plus one NewClient instance that owns it, so Close tears
// the Topology down too. It opens nothing: every shard connection opens
// lazily on first use (see DialTopology), so a member that is down at
// Dial is a retryable failure of the ops routed to it, not a Dial error.
func Dial(addrs []string, opts Opts) (*Cluster, error) {
	t, err := DialTopology(addrs, opts)
	if err != nil {
		return nil, err
	}
	c, _ := t.NewClient()
	c.owned = true
	return c, nil
}

// Topology returns the cluster's shared membership state: membership
// changes (AddShard/RemoveShard/ReplaceShard), Members snapshots, and the
// anti-entropy scrubber live there.
func (c *Cluster) Topology() *Topology { return c.topo }

// AddShard adds a named shard online; see Topology.AddShard.
func (c *Cluster) AddShard(name string) error { return c.topo.AddShard(name) }

// RemoveShard removes a named shard online; see Topology.RemoveShard.
func (c *Cluster) RemoveShard(name string) error { return c.topo.RemoveShard(name) }

// ReplaceShard atomically substitutes one shard for another; see
// Topology.ReplaceShard.
func (c *Cluster) ReplaceShard(oldName, newName string) error {
	return c.topo.ReplaceShard(oldName, newName)
}

// NumShards returns the number of live member shards.
func (c *Cluster) NumShards() int {
	tab := c.topo.tab.Load()
	n := 0
	for _, d := range tab.dead {
		if !d {
			n++
		}
	}
	return n
}

// Names returns the live shard names from one consistent membership
// snapshot. Use Topology.Members for the (names, epoch) pair.
func (c *Cluster) Names() []string {
	names, _ := c.topo.Members()
	return names
}

// ShardFor returns the slot of the shard owning key on the current
// serving ring: the key's primary under replication.
func (c *Cluster) ShardFor(key uint64) int {
	tab := c.topo.tab.Load()
	return tab.ring[ringSearch(tab.ring, c.topo.keyh(key))].shard
}

// replicasFor appends key's replica set on the current serving ring to
// buf[:0]; see replicasOn.
func (c *Cluster) replicasFor(key uint64, buf []int) []int {
	tab := c.topo.tab.Load()
	return replicasOn(tab.ring, c.topo.keyh(key), c.topo.replicas, buf)
}

func (c *Cluster) Get(key uint64) (uint64, bool, error) { return c.sync(core.OpGet, key, 0) }

func (c *Cluster) Put(key, val uint64) (uint64, bool, error) { return c.sync(core.OpPut, key, val) }

func (c *Cluster) Insert(key, val uint64) (uint64, bool, error) {
	return c.sync(core.OpInsert, key, val)
}

func (c *Cluster) Delete(key uint64) (uint64, bool, error) { return c.sync(core.OpDelete, key, 0) }

// sync runs one operation as a pipe of one (see the package comment):
// enqueue on the instance's window-1 repPipe, flush, re-enqueue a retryable
// failure within the retry budget (zero for New-mode clusters), and map
// the completion onto the Store contract. A retried write is at-least-once:
// a retried Insert whose first attempt applied reports the key as present.
func (c *Cluster) sync(kind core.OpKind, key, val uint64) (uint64, bool, error) {
	if c.one == nil {
		c.one = c.newRepPipe(1, func(cc core.Completion) { c.done = cc })
	}
	pol := c.topo.retry
	for attempt := 0; ; attempt++ {
		if err := c.one.enq(kind, key, val); err != nil {
			return 0, false, err
		}
		c.one.Flush() // errors surface through the op's own completion
		if c.done.Err == nil || attempt >= pol.Max || !server.IsRetryable(c.done.Err) {
			break
		}
		time.Sleep(pol.Backoff(attempt, &c.rng))
	}
	d := c.done
	if kind == core.OpInsert && errors.Is(d.Err, core.ErrExists) {
		return d.Value, false, nil
	}
	return d.Value, d.OK, d.Err
}

// Pipe opens the replicated pipelined surface: each enqueue routes to its
// key's replica set on the current ring. opts.OnComplete receives every
// shard's completions through one callback, merged in per-primary enqueue
// order (per-key program order); completions for keys with different
// primaries may interleave in any order. Each write fans to the key's
// replica set and completes once WriteQuorum replicas ack; reads fail
// over replica to replica on retryable errors. The pipe adopts ring
// changes at enqueue boundaries — flushing in-flight ops first — so
// per-key order survives a mid-stream reshard flip. Enqueues into the
// returned pipe must not be made from inside OnComplete.
func (c *Cluster) Pipe(opts core.PipeOpts) (core.Pipe, error) {
	w := opts.Window
	if w == 0 {
		w = c.window
	}
	return c.newRepPipe(w, opts.OnComplete), nil
}

// Close closes this instance's shard connections; for a Cluster built by
// New or Dial it also tears down the owned Topology (detector, scrubber,
// coordinator connections).
func (c *Cluster) Close() error {
	c.topo.unregister(c)
	if c.one != nil {
		c.one.Close()
	}
	first := c.stores.close()
	if c.owned {
		if err := c.topo.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
