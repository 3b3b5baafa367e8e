// Package core implements the Dandelion Hashtable (DLHT) from
// "DLHT: A Non-blocking Resizable Hashtable with Fast Deletes and
// Memory-awareness" (HPDC'24): a closed-addressing concurrent hashtable
// built on bounded cache-line chaining with lock-free Gets/Inserts/Deletes,
// double-word-CAS Puts, software-prefetched batching, and a parallel,
// practically non-blocking resize.
//
// The exported surface of this package is re-exported by the top-level dlht
// package, which is the intended import path for applications.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/epoch"
	"repro/internal/hashfn"
)

// Mode selects one of DLHT's three operating modes (§3.1).
type Mode uint8

const (
	// Inlined stores 8-byte keys and 8-byte values directly in the slots.
	Inlined Mode = iota
	// Allocator stores values (and keys larger than 8 bytes) out of line;
	// slots carry 48-bit references with overloaded metadata bits. Gets
	// return pointers (byte views) rather than copies, and a Put (the
	// replace half of UpsertKVHashed) swaps the pair's block reference.
	Allocator
	// HashSet stores only keys (at most 8 bytes); values are absent.
	HashSet
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Inlined:
		return "inlined"
	case Allocator:
		return "allocator"
	case HashSet:
		return "hashset"
	}
	return "unknown"
}

// Reserved transfer keys (§3.2.5): written into migrated slots so that a
// racing Put's double-word CAS must fail. One is used for even bins and one
// for odd bins, mirroring the paper; user keys may not take these values.
const (
	TransferKeyEven = ^uint64(0)     // 0xFFFFFFFFFFFFFFFF
	TransferKeyOdd  = ^uint64(0) - 1 // 0xFFFFFFFFFFFFFFFE
)

// Errors returned by table operations.
var (
	// ErrExists is returned by Insert when the key is already present; the
	// existing value accompanies it, matching the paper's "return its value
	// along with the corresponding flag".
	ErrExists = errors.New("dlht: key already exists")
	// ErrShadow is returned when an operation hits a key held in Shadow
	// state by an uncommitted shadow Insert (§3.2.2 transactions).
	ErrShadow = errors.New("dlht: key locked by shadow insert")
	// ErrFull is returned by Insert when the bin and link array are
	// exhausted and resizing is disabled.
	ErrFull = errors.New("dlht: index full and resizing disabled")
	// ErrReservedKey rejects the transfer-key values.
	ErrReservedKey = errors.New("dlht: key value reserved for resize transfer")
	// ErrWrongMode flags an API call not available in the table's mode.
	ErrWrongMode = errors.New("dlht: operation not supported in this mode")
	// ErrKeyTooLarge flags keys above 8 bytes outside Allocator mode.
	ErrKeyTooLarge = errors.New("dlht: key larger than 8 bytes requires Allocator mode")
	// ErrTooManyHandles is returned when more handles are requested than
	// Config.MaxThreads.
	ErrTooManyHandles = errors.New("dlht: handle limit reached; raise Config.MaxThreads")
)

// Config configures a Table. The zero value is usable: an Inlined,
// resizable table with modulo hashing and paper-default geometry.
type Config struct {
	// Mode selects Inlined (default), Allocator, or HashSet.
	Mode Mode
	// Bins is the initial number of bins. Defaults to 64K. Each bin is one
	// 64-byte primary bucket holding 3 slots. A power of two maps keys to
	// bins with a mask, and resizing (×8, ×4 or ×2) keeps it one; any other
	// count pays a 64-bit division per op.
	Bins uint64
	// LinkRatio is bins per link bucket (default 8, §3.1).
	LinkRatio int
	// Hash selects the bin-mapping hash (default Modulo, §3.4.3).
	Hash hashfn.Kind
	// Resizable enables the non-blocking parallel resize. When false, an
	// Insert that cannot find room returns ErrFull. Either way an op
	// reaches the current index with one pointer load: the Go GC frees a
	// drained index, so ops make none of §3.2.5's index announcements.
	Resizable bool
	// SingleThread strips all synchronization (§3.4.5). The table must
	// then be used from exactly one goroutine.
	SingleThread bool
	// PrefetchWindow bounds how far ahead of execution the pipeline
	// engine's software prefetches run (§3.3). Exec, GetKVBatch and
	// pipelines created with Window 0 keep at most this many bins in
	// flight, so a prefetched cache line is touched while it is still
	// resident instead of being evicted by the tail of a huge batch.
	// Zero or less selects the default (16).
	PrefetchWindow int
	// MaxThreads bounds the number of Handles (default 2×GOMAXPROCS).
	MaxThreads int
	// ChunkBins is the resize transfer chunk (default 16384, §3.2.5).
	ChunkBins uint64

	// Allocator-mode settings.

	// Alloc supplies the out-of-line allocator; nil selects the slab Arena
	// (the mimalloc analogue). Ignored outside Allocator mode.
	Alloc alloc.Allocator
	// VariableKV stores per-pair key/value sizes in the allocation header,
	// allowing mixed sizes in one index (§3.4.1). Costs 8 bytes per pair.
	VariableKV bool
	// ValueSize is the fixed value size when VariableKV is false.
	ValueSize int
	// Namespaces enables 12-bit namespace tags packed into slot metadata
	// (§3.4.2).
	Namespaces bool
	// EpochGC defers freeing of deleted out-of-line blocks until readers
	// have quiesced (§3.2.3). Opt-in, as in the paper.
	EpochGC bool
	// StrongSnapshots enables the blocking strongly-consistent snapshot
	// (§3.4.4); costs one counter update per mutating request.
	StrongSnapshots bool
	// TrackVersions maintains a per-key applied-mutation counter
	// (Handle.VersionOf), the last-write-wins arbiter the cluster layer
	// uses for online resharding and anti-entropy repair. Costs one
	// striped-lock map update per mutation; off by default. The counter
	// is keyed by fixed-op keys, so an Allocator-mode table, which runs
	// none, keeps no counter.
	TrackVersions bool
}

func (c *Config) setDefaults() {
	if c.Bins == 0 {
		c.Bins = 1 << 16
	}
	if c.LinkRatio <= 0 {
		c.LinkRatio = 8
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = 2 * runtime.GOMAXPROCS(0)
	}
	if c.ChunkBins == 0 {
		c.ChunkBins = 16384
	}
	if c.PrefetchWindow <= 0 {
		c.PrefetchWindow = defaultPrefetchWindow
	}
	if c.Mode == Allocator {
		if c.Alloc == nil {
			c.Alloc = alloc.NewArena()
		}
		if c.ValueSize <= 0 {
			c.ValueSize = 8
		}
	}
}

// Stats aggregates table counters.
type Stats struct {
	Resizes        uint64  // completed index migrations
	ResizeHelpers  uint64  // threads that joined a migration as helpers
	ChunksMoved    uint64  // transfer chunks processed
	KeysMoved      uint64  // slots migrated across indexes
	Bins           uint64  // current bin count
	LinkBuckets    uint64  // link buckets in the current index
	LinksUsed      uint64  // link buckets handed out in the current index
	Occupied       uint64  // live slots (point-in-time probe)
	Capacity       uint64  // total slot capacity
	Occupancy      float64 // Occupied / Capacity
	EpochFrees     uint64  // blocks reclaimed through the epoch GC
	AllocatorStats alloc.Stats
}

// Table is a DLHT instance. Construct with New; obtain a Handle per worker
// goroutine for all operations.
type Table struct {
	cfg     Config
	current atomic.Pointer[index]

	hash64 hashfn.Func64
	hashB  hashfn.FuncBytes

	// maxBlock is the largest pair block an Allocator-mode table stores
	// (checkKV) and reads (pairBlock): the allocator's MaxAlloc, or 64 MiB.
	maxBlock int

	nHandles atomic.Int32

	gc *epoch.Collector

	// vers counts applied mutations per key when Config.TrackVersions is
	// set; nil otherwise (the hot paths pay one nil check).
	vers *verIndex

	// freeIDs recycles handle ids returned through Handle.Close, so
	// long-lived processes with connection-scoped handles (the network
	// server) never exhaust MaxThreads.
	freeMu  sync.Mutex
	freeIDs []int

	// updaters counts in-flight mutating operations; used only when
	// StrongSnapshots is enabled. snapshotGate blocks new updates while a
	// strong snapshot drains the counter.
	updaters     atomic.Int64
	snapshotGate atomic.Uint32

	// Counters.
	resizes       atomic.Uint64
	resizeHelpers atomic.Uint64
	chunksMoved   atomic.Uint64
	keysMoved     atomic.Uint64
	epochFrees    atomic.Uint64
}

// New creates a Table from cfg.
func New(cfg Config) (*Table, error) {
	cfg.setDefaults()
	if cfg.Mode != Allocator && cfg.VariableKV {
		return nil, fmt.Errorf("%w: VariableKV", ErrWrongMode)
	}
	if cfg.Mode != Allocator && cfg.Namespaces {
		return nil, fmt.Errorf("%w: Namespaces", ErrWrongMode)
	}
	// SingleThread tables may still hand out several handles (e.g. a loader
	// and a runner); the contract is that all of them are used from one
	// goroutine only.
	t := &Table{
		cfg:    cfg,
		hash64: hashfn.For64(cfg.Hash),
		hashB:  hashfn.ForBytes(cfg.Hash),
	}
	if cfg.Mode == Allocator {
		if t.maxBlock = cfg.Alloc.MaxAlloc(); t.maxBlock <= 0 {
			t.maxBlock = 64 << 20
		}
	}
	if cfg.Mode == Allocator && cfg.EpochGC {
		a := cfg.Alloc
		t.gc = epoch.NewCollector(cfg.MaxThreads, func(ref uint64) { a.Free(alloc.Ref(ref)) })
	}
	if cfg.TrackVersions && cfg.Mode != Allocator {
		t.vers = newVerIndex()
	}
	t.current.Store(newIndex(cfg.Bins, cfg.LinkRatio, cfg.ChunkBins))
	return t, nil
}

// MustNew is New that panics on configuration errors; convenient in tests
// and examples.
func MustNew(cfg Config) *Table {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Mode returns the table's operating mode.
func (t *Table) Mode() Mode { return t.cfg.Mode }

// Resizable reports whether resizing is compiled in.
func (t *Table) Resizable() bool { return t.cfg.Resizable }

// EpochGC reports whether deleted blocks are retired through epochs
// (Config.EpochGC).
func (t *Table) EpochGC() bool { return t.cfg.EpochGC }

// NumBins returns the current number of bins (changes across resizes).
func (t *Table) NumBins() uint64 { return t.current.Load().numBins }

// Stats returns a point-in-time snapshot of the table counters. The
// occupancy probe walks the whole index; avoid calling it on a hot path.
func (t *Table) Stats() Stats {
	ix := t.current.Load()
	occ, cap := ix.occupancy()
	s := Stats{
		Resizes:       t.resizes.Load(),
		ResizeHelpers: t.resizeHelpers.Load(),
		ChunksMoved:   t.chunksMoved.Load(),
		KeysMoved:     t.keysMoved.Load(),
		Bins:          ix.numBins,
		LinkBuckets:   ix.numLinks,
		Occupied:      occ,
		Capacity:      cap,
		EpochFrees:    t.epochFrees.Load(),
	}
	if n := ix.nextLink.Load(); n > 1 {
		s.LinksUsed = n - 1
		if s.LinksUsed > ix.numLinks {
			s.LinksUsed = ix.numLinks
		}
	}
	if cap > 0 {
		s.Occupancy = float64(occ) / float64(cap)
	}
	if t.cfg.Alloc != nil {
		s.AllocatorStats = t.cfg.Alloc.Stats()
	}
	return s
}

// binFor maps a key hash to a bin of index ix.
func (t *Table) binFor(ix *index, key uint64) uint64 {
	return ix.binOf(t.hash64(key))
}

// HashOf returns the table's bin hash for key — the value every index
// maps to a bin (index.binOf), stable across resizes.
// Callers that route requests by key (the sharded executor) compute it
// once and hand it to Pipeline.EnqueueHashed, so routing and execution
// share one hash.
func (t *Table) HashOf(key uint64) uint64 { return t.hash64(key) }

// HashOfKV is HashOf for Allocator-mode byte keys under namespace ns.
func (t *Table) HashOfKV(ns uint16, key []byte) uint64 {
	hv := t.hashB(key)
	if ns != 0 {
		hv ^= (uint64(ns) + 1) * 0x9e3779b97f4a7c15
	}
	return hv
}

// SingleThread reports whether the table was configured single-threaded
// (§3.4.5) and must therefore only ever be driven from one goroutine.
func (t *Table) SingleThread() bool { return t.cfg.SingleThread }

// isReserved reports whether k collides with a transfer key.
func isReserved(k uint64) bool {
	return k == TransferKeyEven || k == TransferKeyOdd
}

// transferKeyFor returns the transfer key assigned to bin b (§3.2.5: "one
// key for odd and another for even bins").
func transferKeyFor(b uint64) uint64 {
	if b&1 == 0 {
		return TransferKeyEven
	}
	return TransferKeyOdd
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

// Handle is the per-goroutine interface to a Table. Handles are not safe
// for concurrent use; create one per worker.
type Handle struct {
	t  *Table
	id int
	eh *epoch.Handle
	// pinned tracks whether this handle currently pins an epoch. With
	// EpochGC enabled a handle stays pinned between operations so that the
	// byte views returned by GetKV remain valid until the handle's own next
	// AdvanceEpoch or Unpin call (§3.2.3's client contract).
	pinned bool

	// bins and kvp are the window engines of Exec and GetKVBatch, reused
	// across calls: while a bin is being prefetched its hash-derived
	// coordinates are memoized in the engine ring so execution never
	// re-hashes the key. Handles are single-goroutine, so plain state
	// suffices; the rings are sized to the prefetch window on first use.
	// (Streaming Pipelines/KVPipelines carry their own engine state.)
	bins ring[uint64]
	kvp  kvPipe

	// kvs and kvBuf are RangeKVStep's scratch, kept so a crawler stepping
	// on a ticker allocates nothing per step.
	kvs   []KVEntry
	kvBuf []byte
}

// defaultPrefetchWindow is the distance Config.PrefetchWindow defaults to.
// Sixteen in-flight lines stay comfortably inside L1 while still
// overlapping more DRAM latency than out-of-order execution covers on its
// own.
const defaultPrefetchWindow = 16

// prefetchWindow is the configured window, clamped to a batch of n
// requests.
func (t *Table) prefetchWindow(n int) int {
	if w := t.cfg.PrefetchWindow; w < n {
		return w
	}
	return n
}

// window resolves a pipeline's requested window: 0 selects
// Config.PrefetchWindow, and other values are clamped to at least 1.
func (t *Table) window(w int) int {
	if w == 0 {
		w = t.cfg.PrefetchWindow
	}
	return max(w, 1)
}

// Handle allocates the next free per-thread handle, preferring ids
// recycled through Close.
func (t *Table) Handle() (*Handle, error) {
	t.freeMu.Lock()
	if n := len(t.freeIDs); n > 0 {
		id := t.freeIDs[n-1]
		t.freeIDs = t.freeIDs[:n-1]
		t.freeMu.Unlock()
		h := &Handle{t: t, id: id}
		if t.gc != nil {
			h.eh = t.gc.Handle(id)
		}
		return h, nil
	}
	t.freeMu.Unlock()
	id := int(t.nHandles.Add(1)) - 1
	if id >= t.cfg.MaxThreads {
		t.nHandles.Add(-1)
		return nil, ErrTooManyHandles
	}
	h := &Handle{t: t, id: id}
	if t.gc != nil {
		h.eh = t.gc.Handle(id)
	}
	return h, nil
}

// Table returns the table this handle operates on.
func (h *Handle) Table() *Table { return h.t }

// MustHandle is Handle that panics on exhaustion.
func (t *Table) MustHandle() *Handle {
	h, err := t.Handle()
	if err != nil {
		panic(err)
	}
	return h
}

// enter returns the current index, with an EpochGC handle pinned so the
// views it returns outlive frees. It is one pointer load on every table
// kind. The paper's threads announce the index they operate on so the
// resizer can free a drained index once no announcement points at it
// (§3.2.5); here the index is ordinary Go memory, and the runtime GC
// reclaims a drained one once no reference to it (the table's current
// pointer, a caller's ix, an in-flight pipeEntry.ix) is left. An op that
// still holds a drained index follows its bins' redirects to the
// successor, so reaching an old index is slow, never wrong.
func (h *Handle) enter() *index {
	h.pin()
	return h.t.current.Load()
}

// pin establishes the persistent epoch pin for EpochGC tables.
func (h *Handle) pin() {
	if h.eh != nil && !h.pinned {
		h.eh.Enter()
		h.pinned = true
	}
}

// beginUpdate/endUpdate bracket mutating operations when strong snapshots
// are enabled.
func (t *Table) beginUpdate() {
	if !t.cfg.StrongSnapshots {
		return
	}
	for t.snapshotGate.Load() != 0 {
		runtime.Gosched()
	}
	t.updaters.Add(1)
}

func (t *Table) endUpdate() {
	if !t.cfg.StrongSnapshots {
		return
	}
	t.updaters.Add(-1)
}

// Close returns the handle's id to the table for reuse by a future Handle
// call. The handle must not be used again; byte views it returned become
// invalid once the id is reissued. Close exists for connection-scoped
// handles (one per network connection): without it a long-lived server
// would leak handle ids until ErrTooManyHandles.
func (h *Handle) Close() {
	t := h.t
	if t == nil {
		return // already closed
	}
	h.t = nil
	h.Unpin()
	t.freeMu.Lock()
	t.freeIDs = append(t.freeIDs, h.id)
	t.freeMu.Unlock()
}

// Unpin drops the handle's persistent epoch pin (one store; no-op when the
// handle holds none), so a handle that is about to sit idle does not hold
// the global epoch back for every other handle of the table. Byte views
// previously returned by GetKV/UpdateKV become invalid. Call it with nothing
// in flight on the handle's pipelines; the next operation re-pins.
func (h *Handle) Unpin() {
	if h.eh != nil && h.pinned {
		h.eh.Leave()
		h.pinned = false
	}
}

// AdvanceEpoch is the periodic client call of §3.2.3: it refreshes this
// handle's observed epoch, attempts to move the global epoch forward, and
// reclaims blocks retired two epochs ago. Any byte views previously
// returned to this handle by GetKV/UpdateKV become invalid. It returns the
// number of blocks freed by this call. No-op unless EpochGC is enabled.
func (h *Handle) AdvanceEpoch() int {
	if h.eh == nil {
		return 0
	}
	h.eh.Enter() // re-observe the current epoch; keeps the handle pinned
	h.pinned = true
	n := h.eh.Advance()
	if n > 0 {
		h.t.epochFrees.Add(uint64(n))
	}
	return n
}
