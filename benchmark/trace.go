package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	core "repro/internal/core"
)

// The traced run replays a workload's seeded stream through an in-process
// ladder in which each rung adds one layer, measured from outside: by
// timing calls into the layers' public functions and by wrapping the
// net.Conn, net.Listener and core.Store values they accept. A layer's self
// time is its rung minus the rung below. Every rung issues a fixed op
// count, so counts repeat exactly for a seed.

// span is one timed interval: a rung, or one burst of burstOps requests
// inside it. Spans are held in memory and written when the run ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a rung
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Ops      int    `json:"ops"`
}

const burstOps = 1024

type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	// attempted and failed sum every rung's checker.
	attempted, failed uint64
}

// newTracer preallocates the span slice so that its growth is not charged
// to the rungs' allocation counts.
func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload, StartNs: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id, ops int) {
	s := &t.spans[id-1]
	s.EndNs, s.Ops = time.Since(t.t0).Nanoseconds(), ops
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// rungStat is what one rung measured, per op.
type rungStat struct {
	ns      float64
	mallocs float64
	bytes   float64
}

// rung times n ops issued burst by burst — issue(lo, hi) sends ops lo..hi-1
// — then finish, which must complete everything in flight. It records one
// span for the rung and one per burst, and reads the allocator's counters
// on either side.
func (t *tracer) rung(name string, n int, issue func(lo, hi int) error, finish func() error) (rungStat, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	id := t.begin(name, 0)
	for lo := 0; lo < n; lo += burstOps {
		hi := min(lo+burstOps, n)
		b := t.begin(name, id)
		if err := issue(lo, hi); err != nil {
			return rungStat{}, fmt.Errorf("%s: %w", name, err)
		}
		t.end(b, hi-lo)
	}
	if finish != nil {
		if err := finish(); err != nil {
			return rungStat{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	t.end(id, n)
	runtime.ReadMemStats(&m1)
	s := t.spans[id-1]
	return rungStat{
		ns:      float64(s.EndNs-s.StartNs) / float64(n),
		mallocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		bytes:   float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
	}, nil
}

// replay is a rung that sends n ops of the cyclic stream through a fresh
// pipe of be and checks every completion.
func (t *tracer) replay(name string, be backend, ks keyspace, ops []op, n int) (rungStat, error) {
	chk := newChecker(ks, false)
	p, err := be.Pipe(core.PipeOpts{Window: ladderWindow, OnComplete: func(cp core.Completion) { chk.complete(cp) }})
	if err != nil {
		return rungStat{}, err
	}
	st, err := t.rung(name, n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			o := ops[i%len(ops)]
			chk.issuedOps++
			var err error
			switch o.kind {
			case core.OpGet:
				err = p.Get(o.key)
			case core.OpPut:
				err = p.Put(o.key, chk.putValue(o.key, uint64(i)))
			case core.OpInsert:
				err = p.Insert(o.key, valueOf(o.key, 0))
			case core.OpDelete:
				err = p.Delete(o.key)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}, p.Close)
	t.count(chk)
	return st, err
}

// best runs a rung twice and keeps the faster pass: interference on a
// shared machine only ever slows a pass down.
func best(run func() (rungStat, error)) (rungStat, error) {
	a, err := run()
	if err != nil {
		return a, err
	}
	b, err := run()
	if b.ns < a.ns {
		a = b
	}
	return a, err
}

func (t *tracer) count(chk *checker) {
	a, f := chk.finish()
	t.attempted += a
	t.failed += f
}

// ---------------------------------------------------------------------------
// Wrappers
// ---------------------------------------------------------------------------

// ioCounts counts the calls and bytes that cross one side of a connection.
type ioCounts struct {
	reads, writes, bytes atomic.Uint64
}

func perKop(calls uint64, ops int) float64 { return float64(calls) * 1000 / float64(ops) }

// countConn is a net.Conn that counts into c.
type countConn struct {
	net.Conn
	c *ioCounts
}

func (cc countConn) Read(b []byte) (int, error) {
	n, err := cc.Conn.Read(b)
	cc.c.reads.Add(1)
	cc.c.bytes.Add(uint64(n))
	return n, err
}

func (cc countConn) Write(b []byte) (int, error) {
	n, err := cc.Conn.Write(b)
	cc.c.writes.Add(1)
	cc.c.bytes.Add(uint64(n))
	return n, err
}

// countListener hands Server.Serve counting connections.
type countListener struct {
	net.Listener
	c *ioCounts
}

func (l countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{c, l.c}, nil
}

// pipeListener is an in-memory net.Listener: dial returns the client end of
// a net.Pipe whose server end Accept hands out.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// recStore is a core.Store that records every request the cluster enqueues
// on its pipe, so the same requests can be replayed without the cluster
// above them: the child span of the cluster's rung.
type recStore struct {
	core.Store
	shard int
	log   *[]shardCall
}

type shardCall struct {
	shard int
	kind  core.OpKind
	key   uint64
	val   uint64
}

func (s recStore) Pipe(o core.PipeOpts) (core.Pipe, error) {
	p, err := s.Store.Pipe(o)
	return recPipe{p, s.shard, s.log}, err
}

type recPipe struct {
	core.Pipe
	shard int
	log   *[]shardCall
}

func (p recPipe) Get(k uint64) error {
	*p.log = append(*p.log, shardCall{p.shard, core.OpGet, k, 0})
	return p.Pipe.Get(k)
}
func (p recPipe) Put(k, v uint64) error {
	*p.log = append(*p.log, shardCall{p.shard, core.OpPut, k, v})
	return p.Pipe.Put(k, v)
}
func (p recPipe) Insert(k, v uint64) error {
	*p.log = append(*p.log, shardCall{p.shard, core.OpInsert, k, v})
	return p.Pipe.Insert(k, v)
}
func (p recPipe) Delete(k uint64) error {
	*p.log = append(*p.log, shardCall{p.shard, core.OpDelete, k, 0})
	return p.Pipe.Delete(k)
}
