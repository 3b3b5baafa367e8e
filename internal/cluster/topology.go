package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hashfn"
	"repro/internal/server"

	core "repro/internal/core"
)

// Topology is the cluster's shared membership state: the epoch-numbered
// consistent-hash ring, the failure detector, the reshard journal, and —
// while a membership change or scrub pass is running — the coordinator
// machinery. Every Cluster instance (one per goroutine, like any Store)
// routes through one Topology, so a membership change published here is
// observed by all of them; the ring itself is immutable and swapped
// through an atomic pointer, never edited in place.
//
// DialTopology builds a Topology to share, so many worker goroutines
// (each with its own NewClient instance) ride the same membership view,
// detector, and reshard coordinator; a Cluster built by New or Dial is
// one such instance that owns its Topology. Each owner of shard connections — an
// instance, the coordinator, the scrubber — opens its own lazily
// (shardStores).
type Topology struct {
	keyh   hashfn.Func64
	hb     func([]byte) uint64
	vnodes int
	window int

	replicas int
	wq       int

	retry server.RetryPolicy // Cluster.sync's budget: Opts.Retry (DialTopology), zero (New)

	// openShard opens an ordinary per-instance Store for a shard name;
	// openAdmin opens a coordinator/scrubber connection (reshard-featured
	// on the wire). Nil in New-mode clusters without Opts.OpenShard, in
	// which case membership is frozen at construction.
	openShard func(name string) (core.Store, error)
	openAdmin func(name string) (core.Store, error)

	det *detector
	tab atomic.Pointer[ringTab]

	// mu serializes membership changes; it also guards admin, the
	// coordinator's per-slot stores.
	mu    sync.Mutex
	admin shardStores

	// regMu guards the set of live Cluster instances, walked by quiesce.
	regMu   sync.Mutex
	clients map[*Cluster]struct{}

	// jmu guards journal, the set of keys written into a moving range
	// during the handoff window. Non-nil only while a reshard is running;
	// the final sealed-phase copy of these keys is what makes the flip
	// lose nothing, double-writing is merely the warm-up.
	jmu     sync.Mutex
	journal map[uint64]struct{}

	moved atomic.Uint64 // keys copied by resharding, cumulative

	// upCh carries detector down→up transitions to the scrubber, which
	// answers with a targeted anti-entropy pass. Buffered, lossy: a
	// dropped kick is recovered by the next periodic pass.
	upCh chan int

	scrubMu sync.Mutex
	scrub   *scrubber
}

// Ring phases. Normal is the steady state; Handoff double-writes moving
// ranges and journals them; Sealed briefly blocks writes to moving ranges
// while the journal is copied authoritatively, just before the flip.
const (
	phaseNormal = iota
	phaseHandoff
	phaseSealed
)

// ringTab is one immutable published membership view. Slots (indexes into
// names) are grow-only and never reused, so a slot number identifies the
// same shard in every generation; dead slots simply stop appearing on the
// ring.
type ringTab struct {
	gen   uint64 // bumped on every publish; the quiesce fence counts these
	epoch uint64 // bumped only by a completed flip; the user-visible ring version
	phase int

	names []string // slot-indexed, grow-only
	dead  []bool   // slot no longer a member (removed by a reshard)

	ring []ringPoint // the serving ring (the OLD ring during handoff/sealed)
	next []ringPoint // the target ring during handoff/sealed; nil in normal phase
}

// live returns the slot numbers of current members, ascending.
func (rt *ringTab) live() []int {
	out := make([]int, 0, len(rt.names))
	for s := range rt.names {
		if !rt.dead[s] {
			out = append(out, s)
		}
	}
	return out
}

// ringSearch returns the index of the first ring point at or clockwise of
// h, wrapping to ring[0].
func ringSearch(ring []ringPoint, h uint64) int {
	lo, hi := 0, len(ring)
	for lo < hi {
		mid := (lo + hi) / 2
		if ring[mid].h < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(ring) {
		lo = 0
	}
	return lo
}

// replicasOn appends the replica set of key hash h on ring to buf[:0]:
// the first replicas DISTINCT slots walking clockwise. Rank 0 is the
// primary. Depends only on the ring geometry, never on liveness, so every
// client agrees on where a key's copies live.
func replicasOn(ring []ringPoint, h uint64, replicas int, buf []int) []int {
	buf = buf[:0]
	start := ringSearch(ring, h)
	for i := 0; i < len(ring) && len(buf) < replicas; i++ {
		s := ring[(start+i)%len(ring)].shard
		dup := false
		for _, b := range buf {
			if b == s {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, s)
		}
	}
	return buf
}

// buildRing hashes vnodes ring points for every live slot.
func buildRing(hb func([]byte) uint64, vnodes int, names []string, dead []bool) []ringPoint {
	ring := make([]ringPoint, 0, len(names)*vnodes)
	for slot, name := range names {
		if dead[slot] {
			continue
		}
		for v := 0; v < vnodes; v++ {
			ring = append(ring, ringPoint{h: hb(fmt.Appendf(nil, "%s#%d", name, v)), shard: slot})
		}
	}
	sort.Slice(ring, func(a, b int) bool { return ring[a].h < ring[b].h })
	return ring
}

// quiesceTimeout bounds how long a membership change waits for every
// client instance to observe a published ring generation before the
// reshard aborts. Instances holding unflushed pipelined ops are the usual
// reason to hit it.
const quiesceTimeout = 30 * time.Second

// newTopology validates opts and builds the initial normal-phase tab over
// names. probe is the failure detector's re-admission probe, keyed by
// shard name; nil makes it half-open — a down shard is optimistically
// re-admitted after one interval and the next real operation is its
// probe. openShard opens an instance's Store for a shard name, openAdmin
// the coordinator's and scrubber's; both are nil when membership is
// frozen.
func newTopology(names []string, opts Opts, probe func(name string) error, openShard, openAdmin func(string) (core.Store, error)) (*Topology, error) {
	if len(names) == 0 {
		return nil, errors.New("cluster: no shards")
	}
	seen := make(map[string]struct{}, len(names))
	for _, n := range names {
		if _, dup := seen[n]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", n)
		}
		seen[n] = struct{}{}
	}
	vnodes := opts.VNodes
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	replicas := opts.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	if replicas > len(names) {
		return nil, fmt.Errorf("cluster: Replicas %d > %d shards", replicas, len(names))
	}
	wq := opts.WriteQuorum
	if wq <= 0 {
		wq = replicas
	}
	if wq > replicas {
		return nil, fmt.Errorf("cluster: WriteQuorum %d > Replicas %d", wq, replicas)
	}
	t := &Topology{
		keyh:      hashfn.For64(hashfn.WyHash),
		hb:        hashfn.ForBytes(hashfn.WyHash),
		vnodes:    vnodes,
		window:    opts.Window,
		replicas:  replicas,
		wq:        wq,
		openShard: openShard,
		openAdmin: openAdmin,
		clients:   make(map[*Cluster]struct{}),
		upCh:      make(chan int, 16),
	}
	tnames := append([]string(nil), names...)
	dead := make([]bool, len(tnames))
	tab := &ringTab{
		gen:   1,
		epoch: 1,
		phase: phaseNormal,
		names: tnames,
		dead:  dead,
		ring:  buildRing(t.hb, vnodes, tnames, dead),
	}
	t.tab.Store(tab)
	t.admin = shardStores{t: t, open: openAdmin}
	var probeSlot func(i int) error
	if probe != nil {
		probeSlot = func(i int) error { return probe(t.tab.Load().names[i]) }
	}
	t.det = newDetector(len(tnames), opts.DownAfter, opts.ProbeInterval, probeSlot)
	t.det.onUp = func(i int) {
		select {
		case t.upCh <- i:
		default: // lossy by design; the periodic pass covers it
		}
	}
	return t, nil
}

// DialTopology builds a shared Topology over addrs without opening any
// data connections: call NewClient per worker goroutine for Store
// instances, and Close when done. Every shard connection — an instance's,
// the reshard coordinator's, the scrubber's — opens lazily on first use,
// so an unreachable address is a retryable failure of the ops routed to
// it (the detector then marks the shard down and reads fail over), never
// a DialTopology error. Connections carry a retry policy (default
// server.DefaultRetry; Opts.Retry overrides, Max < 0 disables): a shard
// that dies and comes back — same address, state recovered from its WAL —
// is transparently redialed. Membership changes (AddShard, ...) and the
// scrubber operate on the shared view, observed by every instance.
func DialTopology(addrs []string, opts Opts) (*Topology, error) {
	if opts.Retry.Max == 0 {
		opts.Retry = server.DefaultRetry
	} else if opts.Retry.Max < 0 {
		opts.Retry = server.RetryPolicy{}
	}
	// The re-admission probe: the shard is back when its listener accepts.
	// server.DialTCP, not net.Dial: a raw dial to a dead local port can
	// self-connect and re-admit a shard that is still down.
	probe := func(addr string) error {
		conn, err := server.DialTCP(addr, time.Second)
		if err != nil {
			return err
		}
		return conn.Close()
	}
	// Instances open ordinary data connections; the coordinator and
	// scrubber open reshard-featured ones (OpGetVer/OpScan granted).
	dial := func(features uint16) func(string) (core.Store, error) {
		return func(addr string) (core.Store, error) {
			return server.DialV2(addr, server.ClientOpts{
				Table:        opts.Table,
				Features:     features,
				ReadTimeout:  opts.ReadTimeout,
				WriteTimeout: opts.WriteTimeout,
				Retry:        opts.Retry,
			})
		}
	}
	t, err := newTopology(addrs, opts, probe, dial(0), dial(server.FeatureKV|server.FeatureReshard))
	if err != nil {
		return nil, err
	}
	t.retry = opts.Retry
	return t, nil
}

// NewClient registers a new per-goroutine Cluster instance over this
// Topology. Shard connections open lazily on first use.
func (t *Topology) NewClient() (*Cluster, error) {
	c := &Cluster{topo: t, stores: shardStores{t: t, open: t.openShard}, window: t.window}
	t.register(c)
	return c, nil
}

// Members returns a consistent (names, epoch) view of the current
// membership: both come from one atomic snapshot, so tooling inspecting
// the cluster mid-reshard can never see a torn ring. The epoch bumps
// exactly once per completed membership change.
func (t *Topology) Members() ([]string, uint64) {
	tab := t.tab.Load()
	names := make([]string, 0, len(tab.names))
	for s, n := range tab.names {
		if !tab.dead[s] {
			names = append(names, n)
		}
	}
	return names, tab.epoch
}

// Epoch returns the current ring epoch.
func (t *Topology) Epoch() uint64 { return t.tab.Load().epoch }

// MovedKeys returns the cumulative number of keys copied by membership
// changes on this Topology.
func (t *Topology) MovedKeys() uint64 { return t.moved.Load() }

// Close stops the scrubber, prober and coordinator resources. Cluster
// instances opened over this Topology close their own connections.
func (t *Topology) Close() error {
	t.stopScrub()
	t.det.close()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.admin.close()
}

func (t *Topology) register(c *Cluster) {
	t.regMu.Lock()
	t.clients[c] = struct{}{}
	t.regMu.Unlock()
}

func (t *Topology) unregister(c *Cluster) {
	t.regMu.Lock()
	delete(t.clients, c)
	t.regMu.Unlock()
}

// quiesce blocks until every registered instance has observed generation
// gen or has nothing in flight — the fence ensuring no operation is still
// routing on an older view. Instances advance seenGen only at points with
// no undelivered older-generation work (Cluster is single-goroutine, and
// pipes flush before adopting a new tab), so seenGen >= gen really means
// "all my pre-gen operations completed".
//
// The ordering argument: an op increments its instance's inflight (a
// sequentially consistent RMW) BEFORE loading the tab; quiesce runs after
// the tab store. If quiesce reads inflight == 0, any op that slipped past
// did its increment after quiesce's read, hence loads the tab after the
// publish and sees the new generation.
func (t *Topology) quiesce(gen uint64) error {
	deadline := time.Now().Add(quiesceTimeout)
	for {
		all := true
		t.regMu.Lock()
		for c := range t.clients {
			if c.seenGen.Load() < gen && c.inflight.Load() != 0 {
				all = false
				break
			}
		}
		t.regMu.Unlock()
		if all {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: quiesce of generation %d timed out after %v (an instance is holding unflushed pipelined ops?)", gen, quiesceTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// keyMoving reports whether key's replica set differs between the serving
// and target rings of a handoff/sealed tab.
func (t *Topology) keyMoving(tab *ringTab, key uint64) bool {
	if tab.next == nil {
		return false
	}
	h := t.keyh(key)
	var oldBuf, newBuf [maxReplicaStack]int
	oldSet := replicasOn(tab.ring, h, t.replicas, oldBuf[:0])
	newSet := replicasOn(tab.next, h, t.replicas, newBuf[:0])
	if len(oldSet) != len(newSet) {
		return true
	}
	for i := range oldSet {
		if oldSet[i] != newSet[i] {
			return true
		}
	}
	return false
}

// maxReplicaStack bounds stack-allocated replica-set buffers; replica
// counts beyond it spill to the heap in the few places that need one.
const maxReplicaStack = 8

// journalAdd records a handoff-window write to a moving key. Must happen
// BEFORE the write is issued to any shard: then every write that could
// have landed after the bulk copy's read is re-copied by the sealed-phase
// journal pass.
func (t *Topology) journalAdd(key uint64) {
	t.jmu.Lock()
	if t.journal != nil {
		t.journal[key] = struct{}{}
	}
	t.jmu.Unlock()
}

// journaled reports whether key is in the open journal.
func (t *Topology) journaled(key uint64) bool {
	t.jmu.Lock()
	_, ok := t.journal[key]
	t.jmu.Unlock()
	return ok
}

// swapJournal replaces the journal with next and returns the previous
// set.
func (t *Topology) swapJournal(next map[uint64]struct{}) map[uint64]struct{} {
	t.jmu.Lock()
	prev := t.journal
	t.journal = next
	t.jmu.Unlock()
	return prev
}
