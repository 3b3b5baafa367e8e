package expiry

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	core "repro/internal/core"
)

// TestKVHammer runs two handles and a crawler against eight keys under a
// fake clock, for the race detector and for one invariant: a pair written
// without a TTL is never deleted by expiry. Each key has one writer, which
// alternates short-TTL SETs, plain SETs, EXPIREs and DELs on it and, after
// every plain SET, keeps checking that the pair is still there with the
// value it wrote. Meanwhile the other worker's reads lazily expire the
// same keys and the crawler walks them, both acting on deadlines that
// the writer keeps replacing. A check-then-delete that was not atomic
// against SET would delete a fresh plain pair on a stale deadline.
func TestKVHammer(t *testing.T) {
	const keys = 8
	var now atomic.Int64
	now.Store(1)
	tbl := kvTable(64)
	ix := New(now.Load)
	key := func(i int) []byte { return []byte("key-" + strconv.Itoa(i)) }

	stop := make(chan struct{})
	var sweeper sync.WaitGroup
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		h := tbl.MustHandle()
		defer h.Close()
		c := Bind(h, ix, nil).Crawler()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Round(20)
			h.AdvanceEpoch()
		}
	}()

	var workers sync.WaitGroup
	for w := 0; w < 2; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			h := tbl.MustHandle()
			defer h.Close()
			kv := Bind(h, ix, nil)
			rng := rand.New(rand.NewSource(int64(w)))
			plain := map[int]string{} // own keys last written without a TTL
			for i := 0; i < 20000; i++ {
				k := rng.Intn(keys)
				name := key(k)
				hash := tbl.HashOfKV(0, name)
				if k%2 != w {
					// Someone else's key: the read path, lazy expiry included.
					if !kv.Expired(0, name, hash) {
						h.GetKV(0, name)
					}
					continue
				}
				switch rng.Intn(6) {
				case 0: // SET with a TTL that passes within a few steps
					if _, _, err := kv.Set(0, name, []byte("ttl"), hash, now.Load()+int64(rng.Intn(3)), 0); err != nil {
						t.Error(err)
						return
					}
					delete(plain, k)
				case 1: // plain SET
					val := strconv.Itoa(i)
					if _, _, err := kv.Set(0, name, []byte(val), hash, 0, 0); err != nil {
						t.Error(err)
						return
					}
					plain[k] = val
				case 2:
					kv.Delete(0, name, hash)
					delete(plain, k)
				case 3:
					kv.ExpireAt(0, name, hash, now.Load()+int64(rng.Intn(3)))
					delete(plain, k)
				case 4:
					now.Add(1)
				case 5: // GET
					if kv.Expired(0, name, hash) {
						if _, ok := plain[k]; ok {
							t.Errorf("key %d was written without a TTL and expired", k)
							return
						}
						continue
					}
					v, ok := h.GetKV(0, name)
					if want, isPlain := plain[k]; isPlain && (!ok || string(v) != want) {
						t.Errorf("key %d = %q,%v; written without a TTL as %q", k, v, ok, want)
						return
					}
				}
				if i%256 == 0 {
					h.AdvanceEpoch()
				}
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	sweeper.Wait()
}

// TestKVTwoWritersPerKey runs two handles on every key — where
// TestKVHammer gives each key one writer — beside a crawler that keeps
// advancing the clock and lazy reads from both, so every check-and-act
// races another writer's on the same pair:
//   - SET NX from both handles: exactly one winner per key per round, and
//     its pair, written without a TTL, stays until the round's DELs;
//   - INCR from both handles, raced by EXPIREs with a far deadline and
//     PERSISTs that replace the counter's block: the final count is
//     exact, so no update was lost and no counter — written without a
//     TTL — was expired, while short-TTL pairs expire around them;
//   - DEL from both handles: exactly one reports the pair;
//   - after everything is deleted and the epochs drain, the allocator is
//     back to empty: every swapped-out block was retired exactly once.
func TestKVTwoWritersPerKey(t *testing.T) {
	const keys, counters, rounds, incrs = 8, 2, 40, 500
	var now atomic.Int64
	now.Store(1)
	tbl := kvTable(64)
	ix := New(now.Load)
	hs := []*core.Handle{tbl.MustHandle(), tbl.MustHandle(), tbl.MustHandle()}
	defer func() {
		for _, h := range hs {
			h.Close()
		}
	}()
	kvs := []KV{Bind(hs[0], ix, nil), Bind(hs[1], ix, nil)}
	name := func(kind string, k int) []byte { return []byte(kind + "-" + strconv.Itoa(k)) }

	stop := make(chan struct{})
	var crawler sync.WaitGroup
	crawler.Add(1)
	go func() {
		defer crawler.Done()
		c := Bind(hs[2], ix, nil).Crawler()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Round(16)
			hs[2].AdvanceEpoch()
			now.Add(1)
		}
	}()
	// both runs fn on the two writer handles at once.
	both := func(fn func(w int, kv KV)) {
		var ready, wg sync.WaitGroup
		start := make(chan struct{})
		for w := range kvs {
			ready.Add(1)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ready.Done()
				<-start
				fn(w, kvs[w])
				hs[w].AdvanceEpoch()
			}(w)
		}
		ready.Wait()
		close(start)
		wg.Wait()
	}

	for r := 0; r < rounds; r++ {
		var wins [keys]atomic.Int32
		both(func(w int, kv KV) {
			for k := 0; k < keys; k++ {
				key := name("nx", k)
				set, _, err := kv.Set(0, key, []byte{byte('a' + w)}, tbl.HashOfKV(0, key), 0, NX)
				if err != nil {
					t.Error(err)
				}
				if set {
					wins[k].Add(1)
				}
			}
		})
		for k := 0; k < keys; k++ {
			key := name("nx", k)
			v, ok := kvs[0].Get(0, key, tbl.HashOfKV(0, key), now.Load())
			if n := wins[k].Load(); n != 1 || !ok || len(v) != 1 {
				t.Fatalf("round %d key %d: %d NX winners, pair %q,%v", r, k, n, v, ok)
			}
		}

		both(func(w int, kv KV) {
			rng := rand.New(rand.NewSource(int64(r*2 + w)))
			for i := 0; i < incrs; i++ {
				k := rng.Intn(keys)
				ctr, ttl := name("ctr", k%counters), name("ttl", k)
				ch, th := tbl.HashOfKV(0, ctr), tbl.HashOfKV(0, ttl)
				if _, err := kv.Update(0, ctr, ch, func(cur []byte, ok bool) ([]byte, error) {
					n := 0
					if ok {
						n, _ = strconv.Atoi(string(cur))
					}
					return []byte(strconv.Itoa(n + 1)), nil
				}); err != nil {
					t.Error(err)
					return
				}
				switch rng.Intn(4) {
				case 0:
					kv.ExpireAt(0, ctr, ch, now.Load()+1<<40)
				case 1:
					kv.Persist(0, ctr, ch)
				case 2:
					kv.Set(0, ttl, []byte("t"), th, now.Load()+int64(rng.Intn(3)), 0)
				case 3:
					kv.Get(0, ttl, th, now.Load())
				}
			}
		})

		var dels [keys]atomic.Int32
		both(func(w int, kv KV) {
			for k := 0; k < keys; k++ {
				key := name("nx", k)
				if ok, _, _ := kv.Delete(0, key, tbl.HashOfKV(0, key)); ok {
					dels[k].Add(1)
				}
			}
		})
		for k := 0; k < keys; k++ {
			if n := dels[k].Load(); n != 1 {
				t.Fatalf("round %d key %d: %d DELs reported the pair", r, k, n)
			}
		}
	}
	close(stop)
	crawler.Wait()

	total := 0
	for k := 0; k < counters; k++ {
		ctr := name("ctr", k)
		if v, ok := kvs[0].Get(0, ctr, tbl.HashOfKV(0, ctr), now.Load()); ok {
			n, _ := strconv.Atoi(string(v))
			total += n
		}
	}
	if want := rounds * 2 * incrs; total != want {
		t.Fatalf("counters sum to %d after %d INCRs", total, want)
	}

	for _, kind := range []string{"ctr", "ttl"} {
		for k := 0; k < keys; k++ {
			key := name(kind, k)
			kvs[0].Delete(0, key, tbl.HashOfKV(0, key))
		}
	}
	for i := 0; i < 4; i++ {
		for _, h := range hs {
			h.AdvanceEpoch()
		}
	}
	if st := tbl.Stats().AllocatorStats; st.HeapUsed != 0 || st.Allocs != st.Frees {
		t.Fatalf("allocator after delete-all and an epoch drain: %+v", st)
	}
}
