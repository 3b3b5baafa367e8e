package cluster

import (
	"fmt"
	"net"
	"testing"
	"testing/quick"

	"repro/internal/server"

	core "repro/internal/core"
)

// startShards launches n in-process dlht-servers and returns their
// addresses plus the backing tables (for reaching behind the wire in
// assertions).
func startShards(t testing.TB, n int) ([]string, []*core.Table) {
	t.Helper()
	addrs := make([]string, n)
	tbls := make([]*core.Table, n)
	for i := 0; i < n; i++ {
		tbl := core.MustNew(core.Config{Bins: 1 << 10, Resizable: true, MaxThreads: 64})
		s := server.New(tbl, server.Options{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(ln)
		t.Cleanup(func() { s.Close() })
		addrs[i] = ln.Addr().String()
		tbls[i] = tbl
	}
	return addrs, tbls
}

// TestRoutingExactlyOneShard: ShardFor is a total function onto the shard
// set — every key routes to exactly one shard, deterministically.
func TestRoutingExactlyOneShard(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	stores := make([]core.Store, len(names))
	for i := range stores {
		stores[i] = core.MustNew(core.Config{Bins: 1 << 8}).MustStore()
	}
	c, err := New(names, stores, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	f := func(key uint64) bool {
		s := c.ShardFor(key)
		return s >= 0 && s < len(names) && c.ShardFor(key) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}

	// Sanity: with 5 shards and 64 vnodes each, a uniform keyspace should
	// touch every shard.
	hit := make([]int, len(names))
	for k := uint64(0); k < 10000; k++ {
		hit[c.ShardFor(k)]++
	}
	for i, h := range hit {
		if h == 0 {
			t.Fatalf("shard %d received no keys: %v", i, hit)
		}
	}
}

// TestRoutingStableAcrossReconnects: the ring depends only on shard names,
// so tearing down every connection and re-dialing the same address list
// preserves every key→shard assignment — and the data written before the
// reconnect is found after it.
func TestRoutingStableAcrossReconnects(t *testing.T) {
	addrs, _ := startShards(t, 3)

	c1, err := Dial(addrs, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 2000
	route := make([]int, keys)
	for k := uint64(0); k < keys; k++ {
		route[k] = c1.ShardFor(k)
		if _, inserted, err := c1.Insert(k, k*7); err != nil || !inserted {
			t.Fatalf("insert %d: inserted=%v err=%v", k, inserted, err)
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Dial(addrs, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for k := uint64(0); k < keys; k++ {
		if got := c2.ShardFor(k); got != route[k] {
			t.Fatalf("key %d routed to shard %d before reconnect, %d after", k, route[k], got)
		}
		if v, ok, err := c2.Get(k); err != nil || !ok || v != k*7 {
			t.Fatalf("Get(%d) after reconnect = (%d,%v,%v)", k, v, ok, err)
		}
	}
}

// TestDataLandsOnRoutedShard: a key written through the cluster is present
// on exactly the shard ShardFor names — checked behind the wire, against
// the backing tables directly.
func TestDataLandsOnRoutedShard(t *testing.T) {
	addrs, tbls := startShards(t, 3)
	c, err := Dial(addrs, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for k := uint64(0); k < 512; k++ {
		if _, inserted, err := c.Insert(k, k^0xabc); err != nil || !inserted {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	hs := make([]*core.Handle, len(tbls))
	for i, tbl := range tbls {
		hs[i] = tbl.MustHandle()
	}
	for k := uint64(0); k < 512; k++ {
		owner := c.ShardFor(k)
		for i, h := range hs {
			v, ok := h.Get(k)
			if (i == owner) != ok {
				t.Fatalf("key %d: present=%v on shard %d, owner is %d", k, ok, i, owner)
			}
			if ok && v != k^0xabc {
				t.Fatalf("key %d: value %d on shard %d", k, v, i)
			}
		}
	}
}

// TestPipelinedMixedShardBurst: a deep pipelined burst touching every
// shard completes each key's ops in program order — insert, get (sees the
// insert), put, get (sees the put), delete — even though completions from
// different shards interleave.
func TestPipelinedMixedShardBurst(t *testing.T) {
	addrs, _ := startShards(t, 3)
	c, err := Dial(addrs, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 300
	// stage[k] counts how far key k's program has progressed; each
	// completion must observe the exact previous stage.
	stage := make([]int, keys)
	var fail error
	p, err := c.Pipe(core.PipeOpts{Window: 8, OnComplete: func(cp core.Completion) {
		if fail != nil {
			return
		}
		k := cp.Key
		check := func(wantStage int, ok bool, detail string) {
			if stage[k] != wantStage || !ok {
				fail = fmt.Errorf("key %d %s: stage=%d ok=%v err=%v", k, detail, stage[k], ok, cp.Err)
			}
			stage[k]++
		}
		switch stage[k] {
		case 0:
			check(0, cp.Kind == core.OpInsert && cp.OK, "insert")
		case 1:
			check(1, cp.Kind == core.OpGet && cp.OK && cp.Value == k*3, "get-after-insert")
		case 2:
			check(2, cp.Kind == core.OpPut && cp.OK && cp.Value == k*3, "put")
		case 3:
			check(3, cp.Kind == core.OpGet && cp.OK && cp.Value == k*3+1, "get-after-put")
		case 4:
			check(4, cp.Kind == core.OpDelete && cp.OK && cp.Value == k*3+1, "delete")
		default:
			fail = fmt.Errorf("key %d completed %d ops", k, stage[k]+1)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}

	// Interleave the programs: all inserts, then all first gets, etc., so
	// in-flight windows always hold a mix of shards and keys.
	for k := uint64(0); k < keys; k++ {
		if err := p.Insert(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < keys; k++ {
		if err := p.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < keys; k++ {
		if err := p.Put(k, k*3+1); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < keys; k++ {
		if err := p.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < keys; k++ {
		if err := p.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatal(fail)
	}
	for k := range stage {
		if stage[k] != 5 {
			t.Fatalf("key %d: %d/5 completions", k, stage[k])
		}
	}
}

// TestMixedBackends: a cluster over two local stores and one remote client
// — routing and the Store surface do not care what a shard is made of.
func TestMixedBackends(t *testing.T) {
	addrs, _ := startShards(t, 1)
	remote, err := server.DialV2(addrs[0], server.ClientOpts{})
	if err != nil {
		t.Fatal(err)
	}
	stores := []core.Store{
		core.MustNew(core.Config{Bins: 1 << 8, Resizable: true}).MustStore(),
		core.MustNew(core.Config{Bins: 1 << 8, Resizable: true}).MustStore(),
		remote,
	}
	c, err := New([]string{"local-0", "local-1", "remote-0"}, stores, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for k := uint64(0); k < 256; k++ {
		if _, inserted, err := c.Insert(k, k+1); err != nil || !inserted {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	for k := uint64(0); k < 256; k++ {
		if v, ok, err := c.Get(k); err != nil || !ok || v != k+1 {
			t.Fatalf("Get(%d) = (%d,%v,%v)", k, v, ok, err)
		}
	}
}

// TestBadConfigs: constructor validation.
func TestBadConfigs(t *testing.T) {
	if _, err := New(nil, nil, Opts{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	s := core.MustNew(core.Config{Bins: 1 << 8}).MustStore()
	if _, err := New([]string{"a", "b"}, []core.Store{s}, Opts{}); err == nil {
		t.Fatal("name/store length mismatch accepted")
	}
	if _, err := New([]string{"a", "a"}, []core.Store{s, s}, Opts{}); err == nil {
		t.Fatal("duplicate names accepted")
	}
}
