package wal

import (
	"errors"
	"os"
	"runtime"
	"sync"
	"time"

	core "repro/internal/core"
	"repro/internal/expiry"
)

// Options tunes a durable Store. The zero value is usable.
type Options struct {
	// SegmentBytes is the log segment rotation threshold (default 64 MiB).
	SegmentBytes int64
	// SnapshotBytes is how many bytes of appended log trigger an automatic
	// snapshot + compaction (default 256 MiB; negative disables the
	// background snapshotter — Snapshot can still be called manually).
	SnapshotBytes int64
	// nowMs overrides the expiry clock (Unix milliseconds), and noSweep
	// turns the background expiry crawler off, so expiry runs only when a
	// test makes it. Test hooks.
	nowMs   func() int64
	noSweep bool
}

// defaultSnapshotBytes is the automatic snapshot threshold when
// Options.SnapshotBytes is zero.
const defaultSnapshotBytes = 256 << 20

// Store is the durable core.Store backend: an in-memory DLHT table whose
// effective mutations are appended to a group-committed redo log. The
// synchronous mutation methods return once their record is fsynced; the
// pipelined surface (Pipe) withholds each completion until its covering
// group commit instead, so a deep window pays ~one fsync rather than one
// per op. Reads are pure DRAM.
//
// Like every Store, it is a per-goroutine object for its synchronous and
// Pipe surfaces. The shared Log is safe for concurrent appenders, so a
// server can gate many connections on one Store's table+log pair (see
// Table and Log).
type Store struct {
	dir   string
	cfg   core.Config
	opts  Options
	tbl   *core.Table
	log   *Log
	h     *core.Handle // foreground (sync ops + Pipe)
	snapH *core.Handle // snapshotter's handle
	stats RecoverStats

	// Allocator-mode TTLs (the deadlines themselves live in the table's
	// blocks and recover with them): the expiry clock, the KV state
	// machine on the foreground handle, and the background crawler with
	// its own handle. Nil/zero outside Allocator mode.
	exp     *expiry.Index
	kv      expiry.KV
	sweepH  *core.Handle
	sweeper *expiry.Sweeper

	stop     chan struct{}
	wg       sync.WaitGroup
	snapMu   sync.Mutex // serializes Snapshot (loop + manual)
	closeMu  sync.Mutex
	closed   bool
	lastSnap int64 // log.Appended() at the last automatic snapshot
}

// Open opens (creating or recovering) a durable table in dir. The
// directory holds log segments and snapshots; cfg configures the
// in-memory table exactly as core.New does and must match the
// configuration the directory was written under (mode mismatches fail
// recovery). Recovery loads the newest snapshot, replays the segments
// after it — truncating a torn tail in the last one — and opens a fresh
// segment. An Allocator-mode cfg must set EpochGC: its TTL'd pairs are
// written from the store's handles, its crawler's and any a caller binds
// (see expiry.Bind).
func Open(dir string, cfg core.Config, opts Options) (*Store, error) {
	if cfg.Mode == core.Allocator && !cfg.EpochGC {
		return nil, errors.New("wal: an Allocator-mode table needs EpochGC")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The store's own handles (foreground + snapshotter, plus the expiry
	// sweeper's in Allocator mode) ride on top of the caller's handle
	// budget, so cfg.MaxThreads keeps meaning "handles for the caller"
	// exactly as it does for core.New.
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = 2 * runtime.GOMAXPROCS(0)
	}
	cfg.MaxThreads += 2
	if cfg.Mode == core.Allocator {
		cfg.MaxThreads++
	}
	tbl, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	h, err := tbl.Handle()
	if err != nil {
		return nil, err
	}
	var exp *expiry.Index
	if cfg.Mode == core.Allocator {
		exp = expiry.New(opts.nowMs)
	}
	st, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	nextSeg, stats, err := recoverDir(dir, h, &cfg, exp, st)
	if err != nil {
		return nil, err
	}
	// Keys whose replayed deadline already passed are dead on arrival:
	// purge them before serving so they cannot answer a read.
	if exp != nil {
		expiry.Bind(h, exp, nil).PurgeExpired()
	}
	// Views materialized during replay are done with; let replay-retired
	// blocks reclaim.
	h.AdvanceEpoch()
	log, err := openLog(dir, nextSeg, opts.SegmentBytes)
	if err != nil {
		return nil, err
	}
	snapH, err := tbl.Handle()
	if err != nil {
		log.Close()
		return nil, err
	}
	s := &Store{
		dir: dir, cfg: cfg, opts: opts, tbl: tbl, log: log,
		h: h, snapH: snapH, exp: exp, stats: stats, stop: make(chan struct{}),
	}
	if exp != nil {
		s.kv = expiry.Bind(h, exp, log)
	}
	if opts.SnapshotBytes >= 0 {
		s.wg.Add(1)
		go s.snapshotLoop()
	}
	if exp != nil && !opts.noSweep {
		sweepH, err := tbl.Handle()
		if err != nil {
			s.Close()
			return nil, err
		}
		s.sweepH = sweepH
		s.sweeper = expiry.Bind(sweepH, exp, nil).StartSweeper(0)
	}
	return s, nil
}

// Table returns the in-memory table behind the store, for callers that
// serve it through their own handles (the network server). Mutations
// applied through foreign handles are NOT logged: log each effective one
// with Log().LogFixed (or, for KV pairs, an expiry.KV bound to Log()) on
// the handle that applied it, which is what keeps recovery equal to what
// the table served when several handles write a key.
func (s *Store) Table() *core.Table { return s.tbl }

// Expiry returns the store's expiry clock (nil outside Allocator mode).
// The store owns its background crawler; callers serving the table
// through their own handles (the RESP front-end) bind their expiry.KV to
// this Index and to Log, so every handle expires on one clock and logs
// through one state step.
func (s *Store) Expiry() *expiry.Index { return s.exp }

// Log returns the store's redo log, for callers gating their own
// completion paths on group commits (the network server's durable
// tables).
func (s *Store) Log() *Log { return s.log }

// RecoverStats reports what Open's recovery found.
func (s *Store) RecoverStats() RecoverStats { return s.stats }

// snapshotLoop triggers a snapshot + compaction every Options.SnapshotBytes
// of appended log. Polling (rather than signaling from the append path)
// keeps the hot path free of snapshot bookkeeping.
func (s *Store) snapshotLoop() {
	defer s.wg.Done()
	every := s.opts.SnapshotBytes
	if every == 0 {
		every = defaultSnapshotBytes
	}
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if n := s.log.Appended(); n-s.lastSnap >= every {
				if s.Snapshot() == nil {
					s.lastSnap = n
				}
			}
		}
	}
}

// Close stops the snapshotter, flushes and fsyncs the log tail, and
// releases the table handles. The final state is fully recoverable from
// the directory.
func (s *Store) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	close(s.stop)
	s.wg.Wait()
	if s.sweeper != nil {
		s.sweeper.Stop()
	}
	err := s.log.Close()
	s.h.Close()
	s.snapH.Close()
	if s.sweepH != nil {
		s.sweepH.Close()
	}
	return err
}

// crash abandons the store the way kill -9 would: the snapshotter stops,
// buffered unsynced log frames are dropped, nothing is flushed. Test hook
// for crash-recovery properties; the in-memory table is discarded.
func (s *Store) crash() {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.stop)
	s.wg.Wait()
	if s.sweeper != nil {
		s.sweeper.Stop()
	}
	s.log.crash()
}

// ---------------------------------------------------------------------------
// core.Store: synchronous surface
// ---------------------------------------------------------------------------

// Get reads key; pure DRAM, no log interaction.
func (s *Store) Get(key uint64) (uint64, bool, error) {
	v, ok := s.h.Get(key)
	return v, ok, nil
}

// Put overwrites an existing key. An effective put returns only after its
// record's covering group commit; a miss touches neither table nor log.
func (s *Store) Put(key, val uint64) (uint64, bool, error) {
	prev, ok := s.h.Put(key, val)
	if !ok {
		return 0, false, nil
	}
	return prev, true, s.logSync(core.OpPut, key)
}

// Insert adds a new key, durable on return. A duplicate reports the
// existing value with inserted=false and no log record.
func (s *Store) Insert(key, val uint64) (uint64, bool, error) {
	existing, err := s.h.Insert(key, val)
	if errors.Is(err, core.ErrExists) {
		return existing, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	return 0, true, s.logSync(core.OpInsert, key)
}

// Delete removes key, durable on return; a miss is log-free.
func (s *Store) Delete(key uint64) (uint64, bool, error) {
	prev, ok := s.h.Delete(key)
	if !ok {
		return 0, false, nil
	}
	return prev, true, s.logSync(core.OpDelete, key)
}

// logSync logs an effective sync mutation of key and waits for its
// group commit.
func (s *Store) logSync(kind core.OpKind, key uint64) error {
	seq, err := s.log.LogFixed(s.h, &core.Op{Kind: kind, Key: key, OK: true})
	if err == nil {
		err = s.log.SyncWait(seq)
	}
	return err
}

// ---------------------------------------------------------------------------
// core.Store: pipelined surface
// ---------------------------------------------------------------------------

// gatedMax bounds how many completions a pipe stages awaiting their group
// commit before enqueues start waiting the sync out — backpressure so an
// unflushed multi-million-op run cannot grow the staging queue without
// bound.
const gatedMax = 4096

// Pipe opens the completion-driven surface with durability gating: each
// op executes (and its record is appended) at the usual window distance
// behind the enqueue cursor, but its completion is withheld until a group
// commit covers the record. One fsync covers every op staged while the
// previous one was in flight — the group-commit window — so streaming
// throughput approaches the RAM pipeline's, with completions trailing by
// one fsync latency. Flush completes AND syncs everything in flight.
func (s *Store) Pipe(opts core.PipeOpts) (core.Pipe, error) {
	p := &durablePipe{s: s, onc: opts.OnComplete}
	p.pl = s.h.Pipeline(core.PipelineOpts{Window: opts.Window, OnComplete: p.stage})
	return p, nil
}

// gated is one completed-but-unacknowledged op: its completion plus the
// log sequence that must be covered before the completion may fire (0 for
// reads, misses and failed inserts — released as soon as every earlier
// staged op is).
type gated struct {
	c   core.Completion
	seq uint64
}

// durablePipe wraps the handle's pipeline with the sync gate. Single
// goroutine, like every Pipe.
type durablePipe struct {
	s      *Store
	pl     *core.Pipeline
	onc    func(core.Completion)
	queue  []gated
	head   int
	maxSeq uint64
	err    error // sticky append failure, surfaced by Flush/Close
	closed bool
}

// stage is the inner pipeline's completion callback: log an effective
// mutation, then park the completion behind its sync.
func (p *durablePipe) stage(op *core.Op) {
	c := op.Completion()
	seq, err := p.s.log.LogFixed(p.s.h, op)
	if err != nil {
		// The op is applied in memory but will not be durable; its
		// completion reports the failure, and the sticky log error
		// fails the pipe's Flush.
		if p.err == nil {
			p.err = err
		}
		c.Err = err
	}
	p.maxSeq = max(p.maxSeq, seq)
	p.queue = append(p.queue, gated{c: c, seq: seq})
}

// release fires every staged completion whose record the sync watermark
// covers, in staging order.
func (p *durablePipe) release() {
	synced := p.s.log.Synced()
	for p.head < len(p.queue) && p.queue[p.head].seq <= synced {
		g := &p.queue[p.head]
		p.head++
		if p.onc != nil {
			p.onc(g.c)
		}
		*g = gated{}
	}
	if p.head == len(p.queue) {
		p.queue = p.queue[:0]
		p.head = 0
	}
}

// admit runs after each enqueue: opportunistically release what the
// syncer has covered, and — past the staging bound — wait out the sync of
// the older half so the queue cannot grow without bound.
func (p *durablePipe) admit() error {
	if p.closed {
		panic("wal: Pipe used after Close")
	}
	p.release()
	if len(p.queue)-p.head >= gatedMax {
		mid := p.head + (len(p.queue)-p.head)/2
		var wait uint64
		for i := p.head; i <= mid; i++ {
			if s := p.queue[i].seq; s > wait {
				wait = s
			}
		}
		if err := p.s.log.SyncWait(wait); err != nil {
			return err
		}
		p.release()
	}
	return nil
}

func (p *durablePipe) Get(key uint64) error {
	p.pl.Get(key)
	return p.admit()
}

func (p *durablePipe) Put(key, val uint64) error {
	p.pl.Put(key, val)
	return p.admit()
}

func (p *durablePipe) Insert(key, val uint64) error {
	p.pl.Insert(key, val)
	return p.admit()
}

func (p *durablePipe) Delete(key uint64) error {
	p.pl.Delete(key)
	return p.admit()
}

// Flush completes every in-flight request, waits for the group commit
// covering the last staged record, and fires every withheld completion.
// On a log failure the stuck completions still fire — carrying the error,
// since their durability can no longer be promised — so no callback is
// ever silently dropped.
func (p *durablePipe) Flush() error {
	p.pl.Flush()
	err := p.s.log.SyncWait(p.maxSeq)
	p.release()
	if err != nil {
		for p.head < len(p.queue) {
			g := &p.queue[p.head]
			p.head++
			g.c.Err = err
			if p.onc != nil {
				p.onc(g.c)
			}
			*g = gated{}
		}
		p.queue, p.head = p.queue[:0], 0
	}
	if err == nil {
		err = p.err
	}
	return err
}

// Close flushes the pipe and rejects further enqueues. The Store remains
// usable.
func (p *durablePipe) Close() error {
	if p.closed {
		return nil
	}
	err := p.Flush()
	p.pl.Close()
	p.closed = true
	return err
}
