package expiry

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
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
	tbl := kvTable(64, true)
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
