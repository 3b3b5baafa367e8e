// Package dlht is a Go implementation of the Dandelion Hashtable from
// "DLHT: A Non-blocking Resizable Hashtable with Fast Deletes and
// Memory-awareness" (Katsarakis, Gavrielatos, Ntarmos — HPDC 2024).
//
// DLHT is a concurrent, in-memory, closed-addressing hashtable built on
// bounded cache-line chaining. Its headline properties:
//
//   - Lock-free Gets, Inserts and Deletes; Deletes reclaim index slots
//     instantly (no tombstones).
//   - Most requests complete with a single memory access: small keys and
//     values are inlined in 64-byte cache-line buckets.
//   - A batching API overlaps the DRAM latency of many requests with
//     software prefetching while preserving request order. Prefetches run a
//     bounded sliding window ahead of execution (Config.PrefetchWindow,
//     default 16), so arbitrarily deep batches stay cache-resident, and the
//     hash memoized while a bin is in flight is reused at execution (it is
//     recomputed only when a resize redirects the bin).
//   - Resizes are parallel and practically non-blocking: concurrent
//     operations only wait while their own bin (≤15 slots) is migrated.
//   - Three modes: Inlined (8 B keys/values), Allocator (out-of-line
//     variable-size pairs with a pointer API, namespaces, epoch GC), and
//     HashSet (keys only).
//
// # Quick start
//
//	t := dlht.MustNew(dlht.Config{Resizable: true})
//	h := t.MustHandle() // one Handle per goroutine
//	h.Insert(42, 1000)
//	v, ok := h.Get(42)
//	h.Put(42, 2000)
//	h.Delete(42)
//
// # Batching
//
//	ops := []dlht.Op{
//		{Kind: dlht.OpInsert, Key: 1, Value: 10},
//		{Kind: dlht.OpGet, Key: 1},
//	}
//	h.Exec(ops, false)
//
// Exec prefetches each request's bin a bounded distance ahead of executing
// it — Config.PrefetchWindow, default 16 — rather than sweeping the whole
// batch up front, so the lines fetched for a request are still resident
// when it runs no matter how deep the batch is. Tune the window with the
// measured sweep in the README ("Tuning the prefetch window").
//
// # Streaming pipelines
//
// The first-class form of the batching engine is the completion-driven
// Pipeline: requests are issued one at a time and completions are
// delivered through a callback as soon as their prefetched lines land,
// not after a caller-assembled slice finishes.
//
//	p := h.Pipeline(dlht.PipelineOpts{OnComplete: func(op *dlht.Op) {
//		// fires in enqueue order, one window behind the newest enqueue
//	}})
//	p.Insert(1, 10)
//	p.Get(1)
//	p.Flush() // complete the in-flight tail
//
// A long-lived pipeline that is not flushed between bursts keeps the
// prefetch window primed across burst boundaries. Exec and GetKVBatch are
// batch-at-once loops over the same engine; Allocator-mode tables get the
// matching Handle.KVPipeline for streamed lookups.
//
// Every path — the synchronous ops, Exec, a Pipeline and a Store — runs a
// fixed op through one gate and one body, so they refuse the same requests
// with the same sentinels: ErrWrongMode for any fixed op on an
// Allocator-mode table (its API is the KV surface) and for a Put outside
// Inlined mode, ErrReservedKey for an insert of a transfer key. Calls
// without an error result keep their contracts: a synchronous Get, Delete
// or CommitShadow reads a refusal as a miss, and Put panics.
//
// Table walks run one way too: Range, Snapshot and Len are loops of
// Handle.ScanStep steps, RangeKV of Handle.RangeKVStep steps, each resumed
// from a Cursor that stays valid across resizes.
//
// # Batching over the network
//
// The pipeline is also the unit of network service: repro/internal/server
// exposes a table over TCP (cmd/dlht-server), feeding every request
// pipelined on a connection straight into a per-connection Pipeline whose
// completions append wire responses — replies stream out while the burst's
// tail is still being decoded. The sliding-window prefetch that hides DRAM
// latency for local batches (§3.3) thereby absorbs network-induced request
// bursts of any depth, and the pipeline's order preservation doubles as
// the protocol's request/response matching rule. Connection-scoped handles
// are recycled via Handle.Close.
//
// # One API over local, remote, sharded, and durable tables
//
// Store is the backend-independent surface: the synchronous ops
// (Get/Put/Insert/Delete) plus the completion-driven pipelined surface
// (Store.Pipe). Four backends implement it, all reachable through one
// spec-string entry point:
//
//	s, _ := dlht.Open("mem:")                        // in-process (a Handle adapter)
//	s, _ := dlht.Open("tcp://host:4040/users")       // one dlht-server (protocol v2)
//	s, _ := dlht.Open("cluster:a:4040,b:4040")       // N servers, consistent-hashed
//	s, _ := dlht.Open("wal:/var/lib/dlht/users")     // durable (group-commit WAL)
//
// Workload drivers written against Store run unmodified whether the table
// is volatile or durable, local, behind one socket, or sharded across a
// cluster; completions preserve enqueue order per backend shard (and
// therefore per-key program order everywhere). Remote errors map back onto
// the same sentinels local tables return, so errors.Is-based handling is
// backend-independent; Open's own failures wrap ErrBadSpec or the
// backend's dial error. Open is the one constructor beside New and
// Table.Store: a caller that wants a backend's wider surface type-asserts
// the result (*Client for tcp://, *Cluster for cluster:, *DurableStore for
// wal:), and DialTopology shares one cluster membership between many
// per-goroutine instances.
//
// The wal: backend executes every mutation in memory first and appends a
// CRC-framed redo record; the synchronous ops return — and pipelined
// completions fire — only once a group commit (one fsync covering
// everything staged while the previous fsync was in flight) covers their
// record. See the README's "Durability" section for the on-disk format and
// recovery semantics.
//
// # Fault tolerance
//
// The cluster: backend can replicate: with ClusterOpts.Replicas = R every
// key lives on R successor shards of the consistent-hash ring, writes
// complete after WriteQuorum acks (default write-all), and reads fail
// over replica by replica on retryable errors. There is one
// implementation of a replicated operation, the cluster's Pipe; its
// synchronous Get/Put/Insert/Delete are a pipe of one (enqueue, flush,
// return the completion). Each shard connection transparently redials
// with capped exponential backoff (ClusterOpts.Retry / ClientOpts.Retry),
// a failure detector sidelines shards after consecutive retryable
// failures and re-admits them via background probes, and a dead transport
// fails every pending pipelined completion with its error instead of
// hanging. The retry budget (RetryPolicy.Max) applies per synchronous op:
// a pipelined op fails once and the pipe heals on its next enqueue, a
// synchronous one is re-enqueued under the policy's backoff. IsRetryable
// is the shared classification: transport conditions retry, table
// refusals do not.
// With W = R an acked write survives any single-shard loss — a kill -9'd
// shard restarted from its WAL rejoins with no client restart. See the
// README's "Fault tolerance" section for the semantics and knobs.
//
// The wire protocol has one version, v2: every connection opens with a
// handshake carrying a table selector and a feature set (variable-length
// KV frames for Allocator-mode tables). A client of the retired
// handshake-less v1 is refused with a bad-version reply.
//
// The implementation lives in repro/internal/core (table engine),
// repro/internal/server (protocol + network client) and
// repro/internal/cluster (sharding); this package re-exports them as the
// stable public surface.
package dlht

import (
	"repro/internal/alloc"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hashfn"
	"repro/internal/server"
)

// Core types, re-exported.
type (
	// Table is a DLHT instance; construct with New.
	Table = core.Table
	// Config configures a Table; the zero value is a usable Inlined table.
	Config = core.Config
	// Handle is the per-goroutine access object.
	Handle = core.Handle
	// Mode selects Inlined, Allocator or HashSet operation.
	Mode = core.Mode
	// Op is one request in a batch.
	Op = core.Op
	// OpKind tags an Op.
	OpKind = core.OpKind
	// Pipeline is the completion-driven streaming form of the batch API:
	// enqueue requests one at a time, receive in-order completions through a
	// callback once each request falls a full prefetch window behind the
	// newest enqueue. Created via Handle.Pipeline.
	Pipeline = core.Pipeline
	// PipelineOpts configures Handle.Pipeline.
	PipelineOpts = core.PipelineOpts
	// KVPipeline is the Allocator-mode streaming lookup pipeline. Created
	// via Handle.KVPipeline.
	KVPipeline = core.KVPipeline
	// KVPipelineOpts configures Handle.KVPipeline.
	KVPipelineOpts = core.KVPipelineOpts
	// KVGet is one request of an Allocator-mode GetKVBatch or KVPipeline.
	KVGet = core.KVGet
	// Entry is an iterator item.
	Entry = core.Entry
	// Cursor is the resumable position of a table walk (ScanStep,
	// RangeKVStep); the zero value starts a pass.
	Cursor = core.Cursor
	// Stats is the table counter snapshot.
	Stats = core.Stats

	// Store is the backend-independent op surface implemented by local
	// tables ((*Table).Store), network clients, sharded clusters and
	// durable stores (Open). One Store per goroutine.
	Store = core.Store
	// Pipe is a Store's completion-driven pipelined surface.
	Pipe = core.Pipe
	// PipeOpts configures Store.Pipe.
	PipeOpts = core.PipeOpts
	// Completion is the result of one pipelined Store request.
	Completion = core.Completion
	// Cluster consistent-hashes keys across N Stores (one pipelined
	// protocol-v2 connection per shard) and is itself a Store: the
	// concrete type behind cluster: specs and Topology.NewClient.
	Cluster = cluster.Cluster
	// ClusterOpts configures a cluster (WithClusterOpts, DialTopology).
	ClusterOpts = cluster.Opts
	// Topology is a cluster's shared membership state: online membership
	// changes (AddShard/RemoveShard/ReplaceShard), consistent Members
	// snapshots, and the anti-entropy scrubber. Every Cluster exposes its
	// own via Cluster.Topology(); DialTopology builds one shared by many
	// per-goroutine instances.
	Topology = cluster.Topology
	// ScrubOpts tunes Topology.StartScrub, the background anti-entropy
	// pass that converges diverged replicas without client reads.
	ScrubOpts = cluster.ScrubOpts
	// Client is the pipelined network client behind tcp:// specs; beyond
	// the Store surface it exposes the KV surface for Allocator-mode
	// tables and the reshard frames (GetVer, ScanStep).
	Client = server.Client
	// ClientOpts configures a Client (WithClientOpts).
	ClientOpts = server.ClientOpts
	// RetryPolicy bounds a connection's transparent redial-and-retry
	// behavior on retryable failures: attempt budget plus capped
	// exponential backoff with deterministic jitter. Used by
	// ClientOpts.Retry and ClusterOpts.Retry.
	RetryPolicy = server.RetryPolicy
)

// DefaultRetry is the redial-and-retry policy a replicated cluster uses
// when ClusterOpts.Retry is the zero value: a small bounded budget with
// capped exponential backoff. Set RetryPolicy.Max < 0 to disable retries.
var DefaultRetry = server.DefaultRetry

// IsRetryable classifies an error from any Store backend: true for
// transient transport conditions worth retrying on the same or another
// replica (connection loss, resets, timeouts, ErrBusy), false for
// terminal refusals the table itself issued (ErrExists, ErrWrongMode,
// ErrValueSize, ...) — retrying those would return the same answer.
// Cluster failover, client redial, and the loadgen's error accounting
// all branch on this one predicate.
func IsRetryable(err error) bool { return server.IsRetryable(err) }

// Modes.
const (
	Inlined   = core.Inlined
	Allocator = core.Allocator
	HashSet   = core.HashSet
)

// Batch operation kinds.
const (
	OpGet          = core.OpGet
	OpPut          = core.OpPut
	OpInsert       = core.OpInsert
	OpInsertShadow = core.OpInsertShadow
	OpDelete       = core.OpDelete
	OpCommitShadow = core.OpCommitShadow
)

// Hash function kinds (Config.Hash).
const (
	// HashModulo is the paper's default bin mapping: key % bins.
	HashModulo = hashfn.Modulo
	// HashWy selects wyhash (§3.4.3).
	HashWy = hashfn.WyHash
	// HashXX selects xxHash64.
	HashXX = hashfn.XXHash64
	// HashMurmur3 selects MurmurHash3.
	HashMurmur3 = hashfn.Murmur3
	// HashFNV1a selects 64-bit FNV-1a.
	HashFNV1a = hashfn.FNV1a
)

// Errors, re-exported. Remote backends map wire statuses back onto the
// same sentinels, so errors.Is works identically against every Store.
var (
	ErrExists         = core.ErrExists
	ErrShadow         = core.ErrShadow
	ErrFull           = core.ErrFull
	ErrReservedKey    = core.ErrReservedKey
	ErrWrongMode      = core.ErrWrongMode
	ErrValueSize      = core.ErrValueSize
	ErrNamespace      = core.ErrNamespace
	ErrTooManyHandles = core.ErrTooManyHandles

	// Transport-only conditions (no local counterpart).

	// ErrBusy: the server was out of connection handles.
	ErrBusy = server.ErrBusy
	// ErrBadRequest: the server rejected a malformed frame.
	ErrBadRequest = server.ErrBadRequest
	// ErrUnknownTable: the handshake named a table the server doesn't host.
	ErrUnknownTable = server.ErrUnknownTable
	// ErrBadVersion: the server doesn't speak the requested protocol version.
	ErrBadVersion = server.ErrBadVersion
)

// MaxNamespace is the largest namespace id (4Ki namespaces, §3.4.2).
const MaxNamespace = core.MaxNamespace

// New creates a Table from cfg.
func New(cfg Config) (*Table, error) { return core.New(cfg) }

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *Table { return core.MustNew(cfg) }

// NewArena returns the slab allocator used by Allocator-mode tables; pass a
// shared instance via Config.Alloc to pool memory across tables.
func NewArena() alloc.Allocator { return alloc.NewArena() }

// NewNaiveAllocator returns the mutex-guarded baseline allocator (the
// "No mimalloc" configuration of the paper's Fig 14 ablation).
func NewNaiveAllocator() alloc.Allocator { return alloc.NewNaive() }

// DialTopology builds a shared cluster membership over addrs without
// opening data connections: each worker goroutine takes its own Store
// instance with Topology.NewClient, and membership changes published on
// the Topology (AddShard, ...) are observed by every instance with zero
// downtime.
func DialTopology(addrs []string, opts ClusterOpts) (*Topology, error) {
	return cluster.DialTopology(addrs, opts)
}
