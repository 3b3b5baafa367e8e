package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// binOf is hash % numBins for every bin count: a mask on a power of two,
// the division otherwise.
func TestBinOfMatchesModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []uint64{1, 2, 3, 3000, 1 << 10, 1 << 22} {
		ix := newIndex(n, 8, 0)
		if want := n&(n-1) == 0; ix.pow2 != want {
			t.Fatalf("%d bins: pow2 = %v, want %v", n, ix.pow2, want)
		}
		hashes := []uint64{0, 1, n - 1, n, n + 1, 2*n - 1, ^uint64(0), ^uint64(0) - n}
		for i := 0; i < 10000; i++ {
			hashes = append(hashes, rng.Uint64())
		}
		for _, h := range hashes {
			if got := ix.binOf(h); got != h%n {
				t.Fatalf("%d bins: binOf(%#x) = %d, want %d", n, h, got, h%n)
			}
		}
	}
}

// A Get on a bin that a resize has moved, or is moving, finds its key in
// the successor index: the read straight from the line applies only to a
// NoTransfer bin.
func TestGetFollowsTransferredBin(t *testing.T) {
	tb, h := newInlined(t, Config{Bins: 4, Resizable: true})
	const key, bin = 6, 2 // 6 % 4; in the successor, 6 % 32
	if _, err := h.Insert(key, 60); err != nil {
		t.Fatal(err)
	}
	ix := tb.current.Load()
	nx := newIndex(ix.numBins*growthFactor(ix.numBins), tb.cfg.LinkRatio, tb.cfg.ChunkBins)
	ix.next.Store(nx)
	if tb.transferBin(h, ix, nx, bin) != 1 {
		t.Fatal("transfer moved no key")
	}

	// DoneTransfer: the Get redirects at once.
	if v, ok := h.Get(key); !ok || v != 60 {
		t.Fatalf("Get on a DoneTransfer bin = (%d, %v), want (60, true)", v, ok)
	}

	// InTransfer: the Get waits for the bin, then redirects.
	hdrAddr := ix.headerAddr(bin)
	hdr := atomic.LoadUint64(hdrAddr)
	atomic.StoreUint64(hdrAddr, bumpVersion(withBinState(hdr, binInTransfer)))
	type result struct {
		v  uint64
		ok bool
	}
	got := make(chan result)
	go func() {
		v, ok := tb.getInAt(ix, key, bin)
		got <- result{v, ok}
	}()
	select {
	case r := <-got:
		t.Fatalf("Get on an InTransfer bin returned (%d, %v) before the transfer finished", r.v, r.ok)
	case <-time.After(20 * time.Millisecond):
	}
	atomic.StoreUint64(hdrAddr, bumpVersion(withBinState(hdr, binDoneTransfer)))
	if r := <-got; !r.ok || r.v != 60 {
		t.Fatalf("Get on an InTransfer bin = (%d, %v), want (60, true)", r.v, r.ok)
	}
}

// A Get racing Puts, Deletes and Inserts in its own bin returns only a
// value its key held. One bin holds every key. Half the writer's rounds
// hand the watched key's slot back and forth between it and a rival key
// (delete, then insert the other: the freed slot is the lowest, so the
// other key takes it), so a reader that matched the key word and then read
// the rival's value word must see the header move; the other half put,
// delete and insert keys at random, moving the watched key between the
// primary slots and the link buckets.
func TestGetRacingWritesInItsBin(t *testing.T) {
	_, h := newInlined(t, Config{Bins: 1, LinkRatio: 1, MaxThreads: 4})
	const watched, rival, others = 0, 11, 10
	tag := func(key, i uint64) uint64 { return key<<32 | i }
	for k := uint64(0); k <= others; k++ {
		if _, err := h.Insert(k, tag(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var writes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := h.Table().MustHandle()
		rng := rand.New(rand.NewSource(2))
		for i := uint64(1); !stop.Load(); i++ {
			if i&1024 == 0 {
				if _, ok := w.Delete(watched); ok {
					w.Insert(rival, tag(rival, i))
					w.Delete(rival)
				}
				w.Insert(watched, tag(watched, i))
			} else {
				k := uint64(rng.Intn(others + 1))
				switch rng.Intn(3) {
				case 0:
					w.Put(k, tag(k, i))
				case 1:
					w.Delete(k)
				default:
					w.Insert(k, tag(k, i))
				}
			}
			writes.Add(1)
		}
	}()
	reads, minWrites := 1000000, int64(200000)
	if raceEnabled {
		reads, minWrites = reads/10, minWrites/10
	}
	r := h.Table().MustHandle()
	hits := 0
	for i := 0; i < reads || writes.Load() < minWrites; i++ {
		if v, ok := r.Get(watched); ok {
			if v>>32 != watched {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("Get(%d) returned %#x, a value key %d held", watched, v, v>>32)
			}
			hits++
		}
	}
	stop.Store(true)
	wg.Wait()
	if hits == 0 {
		t.Fatal("the watched key was never read")
	}
}

// A table that starts at a bin count that is not a power of two maps by
// division through every resize (3000 → 24000 → 96000 bins): every key
// stays readable and a walk sees each exactly once.
func TestGrowFromNonPowerOfTwo(t *testing.T) {
	tb, h := newInlined(t, Config{Bins: 3000, Resizable: true})
	const keys = 200000
	for k := uint64(1); k <= keys; k++ {
		if _, err := h.Insert(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	if n := tb.Stats().Resizes; n != 2 {
		t.Fatalf("%d resizes, want 2", n)
	}
	if nb := tb.NumBins(); nb != 96000 {
		t.Fatalf("%d bins, want 96000", nb)
	}
	for k := uint64(1); k <= keys; k++ {
		if v, ok := h.Get(k); !ok || v != k*3 {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, v, ok, k*3)
		}
	}
	seen := make(map[uint64]int, keys)
	h.Range(func(k, v uint64) bool {
		seen[k]++
		return true
	})
	if len(seen) != keys {
		t.Fatalf("walk saw %d keys, want %d", len(seen), keys)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("walk saw key %d %d times", k, n)
		}
	}
}
