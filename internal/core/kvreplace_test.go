package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/alloc"
)

// A KV replace runs the Put body: one double-word CAS swaps the slot's
// block reference, so a reader racing a replace of a present key sees the
// old pair or the new one, never the key absent. These tests keep one
// writer handle replacing keys of at most 8 bytes and of more than 8 bytes
// while readers on other handles look them up through each read path —
// sync GetKV, GetKVBatch and KVPipeline — and count every miss. On an
// EpochGC table a reader's view stays valid until its next AdvanceEpoch,
// so the readers also check that every value they see is one the writer
// wrote; without EpochGC the old block is freed at once and only presence
// is checked.

var replaceKeys = [][]byte{
	[]byte("k1"),
	[]byte("k2"),
	[]byte("key-8byt"),
	[]byte("key-with-22-bytes-long"),
	[]byte("key-with-22-bytes-lonG"), // shares the 8-byte key word above
	[]byte("a-key-of-thirty-two-bytes-length"),
}

// replaceVal is the value the writer stores in its n-th round for key.
func replaceVal(key []byte, n int) []byte {
	return []byte(string(key) + "=" + strconv.Itoa(n))
}

// fixedVal is replaceVal for a table of 8-byte values.
func fixedVal(_ []byte, n int) []byte {
	return binary.LittleEndian.AppendUint64(nil, uint64(n))
}

type replaceRace struct {
	t       *testing.T
	tb      *Table
	keys    [][]byte
	val     func(key []byte, n int) []byte
	checkV  bool         // values are checked (EpochGC), not only presence
	rounds  int          // writer rounds at least; each replaces every key once
	written atomic.Int64 // rounds whose upserts have begun
	grown   atomic.Bool  // the inserter (if any) has finished
	done    atomic.Bool
	misses  atomic.Int64
	bad     atomic.Int64
	reads   atomic.Int64
	once    sync.Once
	example string
}

// check records one read of key.
func (r *replaceRace) check(key, val []byte, ok bool) {
	r.reads.Add(1)
	if !ok {
		r.misses.Add(1)
		return
	}
	if !r.checkV {
		return
	}
	// Read the bound before parsing: a value the reader sees was written
	// in a round that had begun by now.
	hi := r.written.Load()
	prefix := append(append([]byte(nil), key...), '=')
	n, err := -1, error(nil)
	if bytes.HasPrefix(val, prefix) {
		n, err = strconv.Atoi(string(val[len(prefix):]))
	}
	if !bytes.HasPrefix(val, prefix) || err != nil || n < 0 || int64(n) > hi {
		r.bad.Add(1)
		r.once.Do(func() { r.example = fmt.Sprintf("%s -> %q (rounds begun %d)", key, val, hi) })
	}
}

func (r *replaceRace) writer(h *Handle) {
	defer r.done.Store(true)
	for n := 1; n <= r.rounds || !r.grown.Load(); n++ {
		r.written.Store(int64(n))
		for _, k := range r.keys {
			if err := h.UpsertKVHashed(0, k, r.val(k, n), r.tb.HashOfKV(0, k), 0); err != nil {
				r.t.Errorf("upsert %s: %v", k, err)
				return
			}
		}
		h.AdvanceEpoch()
	}
}

func (r *replaceRace) readSync(h *Handle) {
	for !r.done.Load() {
		for _, k := range r.keys {
			v, ok := h.GetKV(0, k)
			r.check(k, v, ok)
		}
		h.AdvanceEpoch()
	}
}

func (r *replaceRace) readBatch(h *Handle) {
	reqs := make([]KVGet, len(r.keys))
	for !r.done.Load() {
		for i, k := range r.keys {
			reqs[i] = KVGet{Key: k}
		}
		h.GetKVBatch(reqs)
		for i := range reqs {
			r.check(reqs[i].Key, reqs[i].Value, reqs[i].OK)
		}
		h.AdvanceEpoch()
	}
}

func (r *replaceRace) readPipeline(h *Handle) {
	pl := h.KVPipeline(KVPipelineOpts{Window: 4, OnComplete: func(g *KVGet) {
		r.check(g.Key, g.Value, g.OK)
	}})
	defer pl.Close()
	for !r.done.Load() {
		for i := 0; i < 4; i++ {
			for _, k := range r.keys {
				pl.Get(0, k)
			}
		}
		pl.Flush()
		h.AdvanceEpoch()
	}
}

// run populates the keys, then races the writer against one reader per
// read path — and, with grow, a handle inserting fresh keys so replaces
// race bin transfers.
func (r *replaceRace) run(grow bool) {
	r.t.Helper()
	h := r.tb.MustHandle()
	for _, k := range r.keys {
		if err := h.InsertKV(0, k, r.val(k, 0)); err != nil {
			r.t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	goWith := func(f func(*Handle)) {
		hh := r.tb.MustHandle()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer hh.Close()
			f(hh)
		}()
	}
	r.grown.Store(!grow)
	goWith(r.writer)
	goWith(r.readSync)
	goWith(r.readBatch)
	goWith(r.readPipeline)
	if grow {
		goWith(func(h *Handle) {
			defer r.grown.Store(true)
			for i := 0; i < 4000; i++ {
				k := []byte(fmt.Sprintf("fresh-key-%06d", i))
				if i%2 == 0 {
					k = k[len(k)-6:]
				}
				if err := h.InsertKV(0, k, k); err != nil {
					r.t.Errorf("insert %s: %v", k, err)
					return
				}
				h.AdvanceEpoch()
			}
		})
	}
	wg.Wait()
	if r.reads.Load() == 0 {
		r.t.Fatal("no reads raced the writer")
	}
	if m := r.misses.Load(); m != 0 {
		r.t.Errorf("%d of %d reads missed a key that was always present", m, r.reads.Load())
	}
	if b := r.bad.Load(); b != 0 {
		r.t.Errorf("%d of %d reads saw a value never written, e.g. %s", b, r.reads.Load(), r.example)
	}
	for _, k := range r.keys {
		if v, ok := h.GetKV(0, k); !ok || !bytes.Equal(v, r.val(k, int(r.written.Load()))) {
			r.t.Errorf("final %s = %q, %v; want the last round's value", k, v, ok)
		}
	}
}

func replaceRounds() int {
	if testing.Short() {
		return 500
	}
	return 5000
}

func TestKVReplaceNeverHidesKey(t *testing.T) {
	t.Run("epoch", func(t *testing.T) {
		tb := MustNew(Config{Mode: Allocator, VariableKV: true, Bins: 64, EpochGC: true, MaxThreads: 8})
		r := &replaceRace{t: t, tb: tb, keys: replaceKeys, val: replaceVal, checkV: true, rounds: replaceRounds()}
		r.run(false)
	})
	t.Run("resize", func(t *testing.T) {
		tb := MustNew(Config{Mode: Allocator, VariableKV: true, Bins: 4, ChunkBins: 2, Resizable: true, EpochGC: true, MaxThreads: 8})
		r := &replaceRace{t: t, tb: tb, keys: replaceKeys, val: replaceVal, checkV: true, rounds: replaceRounds()}
		r.run(true)
		if tb.Stats().Resizes == 0 {
			t.Fatal("no resize raced the replaces")
		}
	})
	t.Run("noepoch", func(t *testing.T) {
		// Fixed-size values under keys of at most 8 bytes: a lookup
		// touches no block. A big key's block is read by the lookup and,
		// freed under it, is the stale read the race build reports.
		keys := replaceKeys
		if raceEnabled {
			keys = keys[:3]
		}
		a := alloc.NewArena()
		tb := MustNew(Config{Mode: Allocator, ValueSize: 8, Bins: 64, MaxThreads: 8, Alloc: a})
		r := &replaceRace{t: t, tb: tb, keys: keys, val: fixedVal, rounds: replaceRounds()}
		r.run(false)
		// Every replace freed the block it unlinked.
		if s := a.Stats(); s.Allocs-s.Frees != uint64(len(keys)) {
			t.Fatalf("allocs %d - frees %d != %d live pairs", s.Allocs, s.Frees, len(keys))
		}
	})
}
