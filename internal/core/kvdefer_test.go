package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// The pipelined KV lookup picks a big key's slot from the slot words alone
// and compares the full key a window later (kvpipeline.go). These tests
// make the first pick wrong as often as possible: one bin, every key with
// the same first 8 bytes, the same length class and the same namespace, so
// every slot in the bin passes the slot-word filter for every lookup.

const deferPrefix = "prefix00" // the 8 bytes every key shares

func deferKey(i int) []byte      { return []byte(fmt.Sprintf("%s-key-%03d", deferPrefix, i)) }
func deferNearMiss(i int) []byte { return []byte(fmt.Sprintf("%s-kez-%03d", deferPrefix, i)) }

// lookupsBothWays runs keys through a KVPipeline of window w and through
// GetKVBatch and hands every completion to check.
func lookupsBothWays(h *Handle, w int, keys [][]byte, check func(via string, g *KVGet)) {
	pl := h.KVPipeline(KVPipelineOpts{Window: w, OnComplete: func(g *KVGet) { check("KVPipeline", g) }})
	for _, k := range keys {
		pl.Get(0, k)
	}
	pl.Close()
	reqs := make([]KVGet, len(keys))
	for i, k := range keys {
		reqs[i].Key = k
	}
	h.GetKVBatch(reqs)
	for i := range reqs {
		check("GetKVBatch", &reqs[i])
	}
}

// TestKVDeferredCompareMatchesGetKV: hits, misses and prefix-only
// near-misses through both pipelined surfaces agree with the synchronous
// GetKV, whose compare happens inside the bin scan.
func TestKVDeferredCompareMatchesGetKV(t *testing.T) {
	_, h := newKV(t, Config{Bins: 1, LinkRatio: 1, VariableKV: true, Namespaces: true})
	n := 0
	for ; ; n++ {
		if err := h.writeKV(0, deferKey(n), []byte(fmt.Sprintf("val-%03d", n)), h.t.HashOfKV(0, deferKey(n)), uint64(1000+n), 0, false); err != nil {
			break // the one bin and its links are full
		}
	}
	if n < 6 {
		t.Fatalf("only %d keys fit the bin", n)
	}
	var keys [][]byte
	for i := 0; i < n; i++ {
		keys = append(keys,
			deferKey(i),              // hit, behind up to n-1 wrong candidates
			deferNearMiss(i),         // same prefix, length and namespace; never stored
			append(deferKey(i), 'x'), // same prefix, longer
			[]byte(fmt.Sprintf("other%03d-key-%03d", i, i)), // no slot passes the filter
		)
	}
	for _, w := range []int{1, 2, 3, 16, 64} {
		lookupsBothWays(h, w, keys, func(via string, g *KVGet) {
			want, wantMeta, ref := h.GetKVMeta(0, g.Key, h.t.HashOfKV(0, g.Key))
			if ok := !ref.IsNil(); g.OK != ok || !bytes.Equal(g.Value, want) || g.Meta != wantMeta {
				t.Fatalf("w=%d %s(%q) = (%q, meta %d, %v); GetKV says (%q, meta %d, %v)",
					w, via, g.Key, g.Value, g.Meta, g.OK, want, wantMeta, ok)
			}
		})
	}
}

// TestKVDeferredCompareConcurrent runs the same shape under writers: one
// handle looks keys up through both pipelined surfaces while a second
// keeps replacing and deleting a third of them and a third grows the table
// through resizes. Stable keys must always read back their one value,
// never-stored near-misses must always miss, and a churned key reads as a
// value that key held — the writer stamps key and version into it, and
// versions only grow — or as a miss, which a replace (delete, then insert)
// and a delete both make legitimate. What the deferred compare could get
// wrong is exactly what this would catch: a completion carrying the value
// of another key that shares the prefix, or of a block reused since the
// slot was picked.
func TestKVDeferredCompareConcurrent(t *testing.T) {
	// A fresh one-bin table per trial: the resizes all happen while it
	// grows from nothing.
	for trial := 0; trial < 6 && !t.Failed(); trial++ {
		deferredCompareTrial(t)
	}
}

func deferredCompareTrial(t *testing.T) {
	const keys, minRounds, fillers = 12, 50, 4096
	tb, h := newKV(t, Config{Bins: 1, LinkRatio: 1, Resizable: true, MaxThreads: 4, VariableKV: true, Namespaces: true, EpochGC: true})
	value := func(key int, ver uint64) []byte {
		v := make([]byte, 16)
		binary.LittleEndian.PutUint64(v, uint64(key))
		binary.LittleEndian.PutUint64(v[8:], ver)
		return v
	}
	for i := 0; i < keys; i++ {
		if err := h.InsertKV(0, deferKey(i), value(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	churned := func(i int) bool { return i%3 == 0 }
	var latest [keys]atomic.Uint64 // version the writer is about to publish, per key

	stop, grown := make(chan struct{}), make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // replaces and deletes
		defer bg.Done()
		wh := tb.MustHandle()
		defer wh.Close()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			i := (n * 3) % keys
			k := deferKey(i)
			if n%4 == 3 {
				wh.DeleteKV(0, k)
			} else if err := wh.UpsertKVHashed(0, k, value(i, latest[i].Add(1)), tb.HashOfKV(0, k), 0); err != nil {
				t.Error(err)
				return
			}
			if n%64 == 0 {
				wh.AdvanceEpoch()
			}
		}
	}()
	go func() { // forces resizes
		defer bg.Done()
		defer close(grown)
		gh := tb.MustHandle()
		defer gh.Close()
		for n := 0; n < fillers; n++ {
			k := []byte(fmt.Sprintf("grow-%08d-filler", n))
			if err := gh.InsertKV(0, k, k); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var lookups [][]byte
	index := map[string]int{}
	for i := 0; i < keys; i++ {
		index[string(deferKey(i))] = i
		lookups = append(lookups, deferKey(i), deferNearMiss(i))
	}
	growing := func() bool {
		select {
		case <-grown:
			return false
		default:
			return true
		}
	}
	for r := 0; (r < minRounds || growing()) && !t.Failed(); r++ {
		var floor [keys]uint64
		for i := range floor {
			floor[i] = latest[i].Load()
		}
		lookupsBothWays(h, 1+r%17, lookups, func(via string, g *KVGet) {
			i, stored := index[string(g.Key)]
			switch {
			case !stored:
				if g.OK {
					t.Errorf("%s(%q) hit %q; the key was never stored", via, g.Key, g.Value)
				}
			case !g.OK:
				if !churned(i) {
					t.Errorf("%s(%q) missed a key nobody deletes", via, g.Key)
				}
			case len(g.Value) != 16 || binary.LittleEndian.Uint64(g.Value) != uint64(i):
				t.Errorf("%s(%q) = %x: not a value of key %d", via, g.Key, g.Value, i)
			default:
				ver := binary.LittleEndian.Uint64(g.Value[8:])
				if !churned(i) && ver != 0 {
					t.Errorf("%s(%q) read version %d of a key written once", via, g.Key, ver)
				}
				// Versions below the floor were replaced before the lookup
				// was issued; above the ceiling they do not exist yet.
				if churned(i) && (ver+1 < floor[i] || ver > latest[i].Load()) {
					t.Errorf("%s(%q) read version %d outside [%d, %d]", via, g.Key, ver, floor[i], latest[i].Load())
				}
			}
		})
		h.AdvanceEpoch()
	}
	close(stop)
	bg.Wait()
	if tb.Stats().Resizes == 0 {
		t.Error("the table never resized")
	}
}
