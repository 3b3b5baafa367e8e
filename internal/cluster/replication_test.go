package cluster

import (
	"fmt"
	"net"
	"syscall"
	"testing"
	"time"

	core "repro/internal/core"
)

// transportErr is a retryable, transport-shaped failure for fakes.
var transportErr = &net.OpError{Op: "read", Err: syscall.ECONNRESET}

// flaky wraps an in-process Store and injects failures on demand. Every
// cluster operation — sync or pipelined — reaches a shard through its Pipe,
// so that is the one injection point: while fail is set the shard's pipes
// either reject enqueues (mode enqErr) or accept them and complete with the
// transport error (mode compErr). hits counts the faults actually injected,
// so a test can tell a failover it exercised from one it never reached.
type flaky struct {
	core.Store
	fail string // "", "enqErr", "compErr"
	hits int
}

func (f *flaky) Pipe(opts core.PipeOpts) (core.Pipe, error) {
	inner, err := f.Store.Pipe(opts)
	if err != nil {
		return nil, err
	}
	return &flakyPipe{f: f, inner: inner, onc: opts.OnComplete}, nil
}

type flakyPipe struct {
	f     *flaky
	inner core.Pipe
	onc   func(core.Completion)
}

func (p *flakyPipe) enq(kind core.OpKind, key uint64, fwd func() error) error {
	switch p.f.fail {
	case "enqErr":
		p.f.hits++
		return transportErr
	case "compErr":
		p.f.hits++
		// Accept the frame, then fail it inline — the repPipe must cope
		// with completions arriving during the enqueue call itself.
		if p.onc != nil {
			p.onc(core.Completion{Kind: kind, Key: key, Err: transportErr})
		}
		return nil
	}
	return fwd()
}

func (p *flakyPipe) Get(key uint64) error {
	return p.enq(core.OpGet, key, func() error { return p.inner.Get(key) })
}

func (p *flakyPipe) Put(key, val uint64) error {
	return p.enq(core.OpPut, key, func() error { return p.inner.Put(key, val) })
}

func (p *flakyPipe) Insert(key, val uint64) error {
	return p.enq(core.OpInsert, key, func() error { return p.inner.Insert(key, val) })
}

func (p *flakyPipe) Delete(key uint64) error {
	return p.enq(core.OpDelete, key, func() error { return p.inner.Delete(key) })
}

func (p *flakyPipe) Flush() error { return p.inner.Flush() }
func (p *flakyPipe) Close() error { return p.inner.Close() }

// repFixture builds an n-shard in-process cluster with flaky wrappers.
// The scrubber's own connections (Opts.OpenShard) open the same tables
// without the wrapper: faults hit the data path only.
func repFixture(t *testing.T, n int, opts Opts) (*Cluster, []*flaky) {
	t.Helper()
	names := make([]string, n)
	stores := make([]core.Store, n)
	fl := make([]*flaky, n)
	tables := make(map[string]*core.Table, n)
	for i := range stores {
		names[i] = fmt.Sprintf("shard-%d", i)
		tables[names[i]] = core.MustNew(core.Config{Bins: 1 << 10, Resizable: true})
		fl[i] = &flaky{Store: tables[names[i]].MustStore()}
		stores[i] = fl[i]
	}
	opts.OpenShard = func(name string) (core.Store, error) { return tables[name].Store() }
	c, err := New(names, stores, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, fl
}

// TestReplicasForDistinctStable: the replica set has Replicas distinct
// members, rank 0 is ShardFor, and the set is deterministic.
func TestReplicasForDistinctStable(t *testing.T) {
	c, _ := repFixture(t, 5, Opts{Replicas: 3})
	for key := uint64(0); key < 5000; key++ {
		set := c.replicasFor(key, nil)
		if len(set) != 3 {
			t.Fatalf("key %d: replica set %v, want 3 members", key, set)
		}
		if set[0] != c.ShardFor(key) {
			t.Fatalf("key %d: rank 0 %d != ShardFor %d", key, set[0], c.ShardFor(key))
		}
		seen := map[int]bool{}
		for _, s := range set {
			if seen[s] {
				t.Fatalf("key %d: duplicate shard in replica set %v", key, set)
			}
			seen[s] = true
		}
		again := c.replicasFor(key, nil)
		for i := range set {
			if set[i] != again[i] {
				t.Fatalf("key %d: replica set not deterministic: %v vs %v", key, set, again)
			}
		}
	}
}

// TestSyncWriteFansToAllReplicas: with R=2 W=2 every acked write is
// present on both replicas, and reads work with either one failing.
func TestSyncWriteFansToAllReplicas(t *testing.T) {
	c, fl := repFixture(t, 4, Opts{Replicas: 2})
	for key := uint64(0); key < 500; key++ {
		if _, ins, err := c.Insert(key, key*10); err != nil || !ins {
			t.Fatalf("Insert(%d): (%v,%v)", key, ins, err)
		}
		for _, s := range c.replicasFor(key, nil) {
			if v, ok, err := fl[s].Store.Get(key); err != nil || !ok || v != key*10 {
				t.Fatalf("replica %d of key %d = (%d,%v,%v), want (%d,true,nil)", s, key, v, ok, err, key*10)
			}
		}
	}
	// Any single shard failing leaves every key readable.
	for kill := range fl {
		fl[kill].fail = "compErr"
		for key := uint64(0); key < 500; key++ {
			if v, ok, err := c.Get(key); err != nil || !ok || v != key*10 {
				t.Fatalf("shard %d down: Get(%d) = (%d,%v,%v)", kill, key, v, ok, err)
			}
		}
		if fl[kill].hits == 0 {
			t.Fatalf("shard %d: no fault was injected; the failover was never exercised", kill)
		}
		fl[kill].fail = ""
		c.topo.det.ok(kill) // manual re-admit; prober timing is not this test's subject
	}
}

// TestSyncWriteQuorum: W=1 writes succeed with a replica down; W=2
// writes fail once only one replica is reachable, and the error is
// retryable (transport-shaped, not a table refusal).
func TestSyncWriteQuorum(t *testing.T) {
	c1, fl1 := repFixture(t, 2, Opts{Replicas: 2, WriteQuorum: 1})
	fl1[1].fail = "compErr"
	if _, ins, err := c1.Insert(42, 1); err != nil || !ins {
		t.Fatalf("W=1 Insert with one replica down: (%v,%v)", ins, err)
	}

	c2, fl2 := repFixture(t, 2, Opts{Replicas: 2, WriteQuorum: 2})
	fl2[1].fail = "compErr"
	if _, _, err := c2.Insert(42, 1); err == nil {
		t.Fatal("W=2 Insert with one replica down succeeded")
	}
	if fl1[1].hits == 0 || fl2[1].hits == 0 {
		t.Fatalf("no fault was injected (hits %d, %d)", fl1[1].hits, fl2[1].hits)
	}
}

// TestDetectorMarksAndRevives: DownAfter consecutive failures mark the
// shard down (reads stop paying for it), a success revives it.
func TestDetectorMarksAndRevives(t *testing.T) {
	c, fl := repFixture(t, 3, Opts{Replicas: 2, DownAfter: 3, ProbeInterval: time.Hour})
	var key uint64
	for k := uint64(0); ; k++ {
		if c.ShardFor(k) == 0 {
			key = k
			break
		}
	}
	if _, ins, err := c.Insert(key, 7); err != nil || !ins {
		t.Fatalf("Insert: (%v,%v)", ins, err)
	}
	fl[0].fail = "compErr"
	for i := 0; i < 3; i++ {
		if _, ok, err := c.Get(key); err != nil || !ok {
			t.Fatalf("failover Get %d: (%v,%v)", i, ok, err)
		}
	}
	if fl[0].hits != 3 {
		t.Fatalf("%d faults injected on shard 0, want one per Get (3)", fl[0].hits)
	}
	if !c.topo.det.isDown(0) {
		t.Fatal("shard 0 not marked down after 3 consecutive failures")
	}
	fl[0].fail = ""
	c.topo.det.ok(0)
	if c.topo.det.isDown(0) {
		t.Fatal("shard 0 still down after success")
	}
}

// TestRepPipeQuorumAndOrder: R=2 W=2 pipelined writes land on both
// replicas; completions come back exactly once per op and in per-key
// program order.
func TestRepPipeQuorumAndOrder(t *testing.T) {
	c, fl := repFixture(t, 4, Opts{Replicas: 2})
	const keys, rounds = 200, 5
	// Round 0 Inserts seed value k; rounds 1..4 Put r*1000+k. A Put
	// completion carries the PREVIOUS value, so per-key program order is
	// observable as ascending prev-rounds in the completion stream.
	prevRounds := map[uint64][]int{}
	total := 0
	p, err := c.Pipe(core.PipeOpts{Window: 8, OnComplete: func(cc core.Completion) {
		if cc.Err != nil || !cc.OK {
			t.Errorf("completion %v key %d: (ok=%v, err=%v)", cc.Kind, cc.Key, cc.OK, cc.Err)
		}
		total++
		if cc.Kind == core.OpPut {
			prevRounds[cc.Key] = append(prevRounds[cc.Key], int(cc.Value/1000))
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		for k := uint64(0); k < keys; k++ {
			var err error
			if r == 0 {
				err = p.Insert(k, k) // round 0 value: 0*1000+k
			} else {
				err = p.Put(k, uint64(r)*1000+k)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if total != keys*rounds {
		t.Fatalf("%d completions, want %d", total, keys*rounds)
	}
	// Per-key completion order must be program order: each Put saw the
	// previous round's value.
	for k := uint64(0); k < keys; k++ {
		prs := prevRounds[k]
		if len(prs) != rounds-1 {
			t.Fatalf("key %d: %d Put completions, want %d", k, len(prs), rounds-1)
		}
		for i, r := range prs {
			if r != i {
				t.Fatalf("key %d: Put %d overwrote round-%d value, want round %d (order broken)", k, i+1, r, i)
			}
		}
	}
	// Both replicas hold the final value.
	for k := uint64(0); k < keys; k++ {
		want := uint64(rounds-1)*1000 + k
		for _, s := range c.replicasFor(k, nil) {
			if v, ok, err := fl[s].Store.Get(k); err != nil || !ok || v != want {
				t.Fatalf("replica %d of key %d = (%d,%v,%v), want %d", s, k, v, ok, err, want)
			}
		}
	}
}

// TestRepPipeReadFailover: reads whose primary fails (inline error
// completions — the nastiest arrival) transparently retry the replica
// and succeed. Both failure shapes are exercised: enqueue rejection and
// error completion.
func TestRepPipeReadFailover(t *testing.T) {
	for _, mode := range []string{"enqErr", "compErr"} {
		c, fl := repFixture(t, 3, Opts{Replicas: 2, DownAfter: 1000})
		for k := uint64(0); k < 300; k++ {
			if _, ins, err := c.Insert(k, k+1); err != nil || !ins {
				t.Fatalf("Insert(%d): (%v,%v)", k, ins, err)
			}
		}
		fl[0].fail = mode

		okc := 0
		p, err := c.Pipe(core.PipeOpts{Window: 8, OnComplete: func(cc core.Completion) {
			if cc.Err != nil || !cc.OK || cc.Value != cc.Key+1 {
				t.Errorf("mode %s: Get(%d) completion = (%d,%v,%v)", mode, cc.Key, cc.Value, cc.OK, cc.Err)
				return
			}
			okc++
		}})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 300; k++ {
			if err := p.Get(k); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if okc != 300 {
			t.Fatalf("mode %s: %d successful reads, want 300", mode, okc)
		}
	}
}

// TestRepPipeReadRepair: a pipelined Get whose primary fails and whose
// rank-1 replica answers hands the key to the running scrubber, exactly as
// a sync Get does. The key was written at W=1 past the failing primary, so
// the primary lacks it; the periodic pass is an hour away and no shard is
// ever marked down (no re-admission kick), so only the read-repair note
// can put it there.
func TestRepPipeReadRepair(t *testing.T) {
	c, fl := repFixture(t, 2, Opts{Replicas: 2, WriteQuorum: 1, DownAfter: 1000})
	var key uint64
	for c.ShardFor(key) != 0 {
		key++
	}
	fl[0].fail = "compErr"
	if _, ins, err := c.Insert(key, 9); err != nil || !ins {
		t.Fatalf("W=1 Insert past the failing primary: (%v,%v)", ins, err)
	}
	if _, ok, _ := fl[0].Store.Get(key); ok {
		t.Fatal("the failing primary received the write")
	}
	if err := c.topo.StartScrub(ScrubOpts{Interval: time.Hour}); err != nil {
		t.Fatalf("StartScrub: %v", err)
	}
	hits := fl[0].hits
	p, err := c.Pipe(core.PipeOpts{Window: 8, OnComplete: func(cc core.Completion) {
		if cc.Err != nil || !cc.OK || cc.Value != 9 {
			t.Errorf("Get(%d) completion = (%d,%v,%v), want (9,true,nil)", cc.Key, cc.Value, cc.OK, cc.Err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Get(key); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if fl[0].hits == hits {
		t.Fatal("the read never reached the failing primary")
	}
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(time.Millisecond) {
		if v, ok, _ := fl[0].Store.Get(key); ok && v == 9 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("primary never repaired: the pipelined failover read did not reach the scrubber's repair queue")
		}
	}
}

// TestRepPipeWriteQuorumFailure: with W=2 and a replica rejecting
// frames, writes whose replica set includes the dead shard complete with
// a retryable quorum error — exactly once, never hanging.
func TestRepPipeWriteQuorumFailure(t *testing.T) {
	c, fl := repFixture(t, 2, Opts{Replicas: 2, WriteQuorum: 2, DownAfter: 1000})
	fl[1].fail = "compErr"
	okc, errc := 0, 0
	p, err := c.Pipe(core.PipeOpts{Window: 8, OnComplete: func(cc core.Completion) {
		if cc.Err != nil {
			errc++
		} else {
			okc++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for k := uint64(0); k < n; k++ {
		if err := p.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if okc+errc != n || errc == 0 {
		t.Fatalf("completions ok=%d err=%d, want total %d with errors", okc, errc, n)
	}
	// W=1 over the same failure keeps every write available.
	c2, fl2 := repFixture(t, 2, Opts{Replicas: 2, WriteQuorum: 1, DownAfter: 1000})
	fl2[1].fail = "compErr"
	okc = 0
	p2, err := c2.Pipe(core.PipeOpts{Window: 8, OnComplete: func(cc core.Completion) {
		if cc.Err == nil {
			okc++
		} else {
			t.Errorf("W=1 completion error: %v", cc.Err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k++ {
		if err := p2.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	if okc != n {
		t.Fatalf("W=1: %d acked writes, want %d", okc, n)
	}
}
