package expiry

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alloc"
	core "repro/internal/core"
)

// kvTable is the served kv-table shape: out-of-line variable pairs, every
// block with a header and so a deadline word, retired through epochs.
func kvTable(bins uint64) *core.Table {
	return core.MustNew(core.Config{
		Bins: bins, Resizable: true, MaxThreads: 8, Mode: core.Allocator,
		VariableKV: true, Namespaces: true, EpochGC: true,
	})
}

// TestIndexBasics: what is left of the Index is a clock.
func TestIndexBasics(t *testing.T) {
	var now atomic.Int64
	ix := New(now.Load)
	now.Store(42)
	if ix.Now() != 42 {
		t.Fatalf("Now = %d with the injected clock at 42", ix.Now())
	}
	if real := New(nil).Now(); real < time.Now().Add(-time.Minute).UnixMilli() {
		t.Fatalf("New(nil).Now() = %d is not the wall clock", real)
	}
	for _, c := range []struct {
		meta uint64
		now  int64
		dead bool
	}{{0, 1 << 40, false}, {100, 99, false}, {100, 100, true}, {100, 101, true}} {
		if Dead(c.meta, c.now) != c.dead {
			t.Errorf("Dead(%d, %d) = %v", c.meta, c.now, !c.dead)
		}
	}
}

// TestLazyVsSweepVsOracle drives a fake clock over a population of pairs
// with scattered deadlines and checks, at every step, that the three ways
// of asking "is this key dead?" — the read path's Dead check on the pair's
// metadata word, the crawler, and a brute-force oracle map — agree:
// nothing expires early, and a crawl of the whole table past every
// deadline leaves nothing expired behind, within the rounds its budget
// allows.
func TestLazyVsSweepVsOracle(t *testing.T) {
	var now atomic.Int64
	const n, bins = 2000, 256
	tbl := kvTable(bins)
	h := tbl.MustHandle()
	defer h.Close()
	kv := Bind(h, New(now.Load), nil)
	rng := rand.New(rand.NewSource(1))

	type ent struct {
		ns   uint16
		key  []byte
		at   int64
		hash uint64
	}
	oracle := make([]*ent, n)
	for i := range oracle {
		e := &ent{
			ns:  uint16(rng.Intn(4)),
			key: []byte(fmt.Sprintf("key-%04d", i)),
			at:  int64(1 + rng.Intn(1000)),
		}
		e.hash = tbl.HashOfKV(e.ns, e.key)
		if _, _, err := kv.Set(e.ns, e.key, []byte("v"), e.hash, e.at, 0); err != nil {
			t.Fatal(err)
		}
		oracle[i] = e
	}

	c := kv.Crawler()
	for clock := int64(0); clock <= 1100; clock += 50 {
		now.Store(clock)
		// A few rounds first: they may only delete what the oracle calls
		// dead, so every pair the oracle calls live must still read back,
		// and read back not Dead.
		for r := 0; r < 3; r++ {
			c.Round(20)
		}
		for _, e := range oracle {
			_, meta, ref := h.GetKVMeta(e.ns, e.key, e.hash)
			ok := !ref.IsNil()
			if live := e.at > clock; live && (!ok || Dead(meta, clock)) {
				t.Fatalf("t=%d key %s (deadline %d): present=%v meta=%d", clock, e.key, e.at, ok, meta)
			} else if ok && int64(meta) != e.at {
				t.Fatalf("key %s carries deadline %d, was set with %d", e.key, meta, e.at)
			} else if ok && !live && !Dead(meta, clock) {
				t.Fatalf("t=%d key %s (deadline %d) is past it and not Dead", clock, e.key, e.at)
			}
		}
	}
	// Past every deadline: a round spends at least its budget, so the
	// whole table — its bins, grown or not, plus its pairs — is crawled
	// within ceil((bins+pairs)/budget) rounds of the cursor wrapping.
	now.Store(2000)
	const budget = 100
	c = kv.Crawler()
	maxRounds := (int(tbl.Stats().Bins) + n + budget - 1) / budget
	rounds := 0
	for ; h.Len() > 0 && rounds < maxRounds; rounds++ {
		c.Round(budget)
	}
	if left := h.Len(); left != 0 {
		t.Fatalf("%d pairs survived %d rounds of budget %d past all deadlines", left, rounds, budget)
	}
}

// TestConcurrentHammer races the crawler against SET and PERSIST on the
// keys it is crawling, under a clock that keeps passing their deadlines,
// for the race detector and for one invariant: the crawler deletes nothing
// live. A writer gives its key a deadline one tick away, then takes it
// back — PERSIST, or a plain SET — and from then on the pair must stay
// until the writer's next move. A crawler whose delete were not
// conditioned on the very pair whose deadline it read would act on that
// deadline and delete the persisted pair.
func TestConcurrentHammer(t *testing.T) {
	var now atomic.Int64
	now.Store(1)
	tbl := kvTable(64)
	ix := New(now.Load)
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		h := tbl.MustHandle()
		defer h.Close()
		c := Bind(h, ix, nil).Crawler()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Round(16)
			h.AdvanceEpoch()
			now.Add(1)
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			h := tbl.MustHandle()
			defer h.Close()
			kv := Bind(h, ix, nil)
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 4000; i++ {
				key := []byte("hammer-key-" + strconv.Itoa(w) + "-" + strconv.Itoa(rng.Intn(8)))
				hash := tbl.HashOfKV(0, key)
				val := strconv.Itoa(i)
				if _, _, err := kv.Set(0, key, []byte(val), hash, now.Load()+1, 0); err != nil {
					t.Error(err)
					return
				}
				kept := false
				if rng.Intn(2) == 0 {
					kept, _, _ = kv.Persist(0, key, hash) // false: it expired first
				} else {
					val += "'"
					_, _, err := kv.Set(0, key, []byte(val), hash, 0, 0)
					kept = err == nil
				}
				if !kept {
					continue
				}
				runtime.Gosched() // let the crawler at it
				if got, ok := kv.Get(0, key, hash, now.Load()); !ok || string(got) != val {
					t.Errorf("key %s = %q,%v after its deadline was taken back; wrote %q", key, got, ok, val)
					return
				}
				if i%256 == 0 {
					h.AdvanceEpoch()
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	bg.Wait()
}

// TestDeadlineLivesInTheBlock: a deadline is written with its block and
// never changed in place. EXPIRE and PERSIST replace the pair's block with
// one carrying the new word — one allocation each, none for a PERSIST
// with nothing to remove — and SET KEEPTTL and INCR's Update carry the
// word over to the block they write.
func TestDeadlineLivesInTheBlock(t *testing.T) {
	var now atomic.Int64
	now.Store(1000)
	arena := alloc.NewArena()
	tbl := core.MustNew(core.Config{Bins: 64, Mode: core.Allocator, VariableKV: true, EpochGC: true, Alloc: arena})
	h := tbl.MustHandle()
	defer h.Close()
	kv := Bind(h, New(now.Load), nil)
	key := []byte("a-key-longer-than-8")
	hash := tbl.HashOfKV(0, key)
	deadline := func() int64 {
		t.Helper()
		_, meta, ref := h.GetKVMeta(0, key, hash)
		if ref.IsNil() {
			t.Fatal("pair is gone")
		}
		return int64(meta)
	}

	if _, _, err := kv.Set(0, key, []byte("1"), hash, 5000, 0); err != nil {
		t.Fatal(err)
	}
	before := arena.Stats()
	if ok, _, _ := kv.ExpireAt(0, key, hash, 7000); !ok || deadline() != 7000 {
		t.Fatalf("ExpireAt: ok=%v deadline=%d", ok, deadline())
	}
	if ok, _, _ := kv.Persist(0, key, hash); !ok || deadline() != 0 {
		t.Fatalf("Persist: ok=%v deadline=%d", ok, deadline())
	}
	if ok, _, _ := kv.Persist(0, key, hash); ok {
		t.Fatal("Persist reported a deadline on a pair without one")
	}
	if ok, _, _ := kv.ExpireAt(0, key, hash, 9000); !ok || deadline() != 9000 {
		t.Fatalf("ExpireAt after Persist: ok=%v deadline=%d", ok, deadline())
	}
	if after := arena.Stats(); after.Allocs != before.Allocs+3 {
		t.Fatalf("three effective EXPIRE/PERSISTs made %d allocations", after.Allocs-before.Allocs)
	}
	before = arena.Stats()

	if _, _, err := kv.Set(0, key, []byte("41"), hash, 0, KeepTTL); err != nil || deadline() != 9000 {
		t.Fatalf("SET KEEPTTL: err=%v deadline=%d", err, deadline())
	}
	if _, err := kv.Update(0, key, hash, func(cur []byte, ok bool) ([]byte, error) {
		return []byte("42"), nil
	}); err != nil || deadline() != 9000 {
		t.Fatalf("Update: err=%v deadline=%d", err, deadline())
	}
	if after := arena.Stats(); after.Allocs != before.Allocs+2 {
		t.Fatalf("two replaces made %d allocations", after.Allocs-before.Allocs)
	}
	if rem, has, ok := kv.TTL(0, key, hash); !ok || !has || rem != 8000 {
		t.Fatalf("TTL = %d,%v,%v", rem, has, ok)
	}
	if _, _, err := kv.Set(0, key, []byte("43"), hash, 0, 0); err != nil || deadline() != 0 {
		t.Fatalf("plain SET kept deadline %d (err %v)", deadline(), err)
	}
}

// TestExpiryStateOffHeap: deadlines are table bytes, not Go objects. A
// hundred thousand SETs with a TTL over a fixed key set, each replacing
// its pair, leave the Go heap where it started.
func TestExpiryStateOffHeap(t *testing.T) {
	const keys, sets = 10_000, 100_000
	tbl := kvTable(1 << 13)
	h := tbl.MustHandle()
	defer h.Close()
	ix := New(nil)
	kv := Bind(h, ix, nil)
	key := func(i int) []byte { return []byte("offheap-key-" + strconv.Itoa(i%keys)) }
	val := make([]byte, 64)
	set := func(i int) {
		k := key(i)
		if _, _, err := kv.Set(0, k, val, tbl.HashOfKV(0, k), ix.Now()+3_600_000, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ { // the arena takes its regions now
		set(i)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < sets; i++ {
		set(i)
		if i%1024 == 0 {
			h.AdvanceEpoch() // reclaim the replaced blocks
		}
	}
	const slack = 128 << 10 // the old deadline map held ~60 B per key: 600 KiB here
	if after := heap(); after > before+slack {
		t.Fatalf("HeapAlloc grew %d bytes over %d TTL'd SETs of %d keys", after-before, sets, keys)
	}
}
