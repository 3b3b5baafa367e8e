package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Model-based property test for Allocator mode: random op sequences over
// byte keys must agree with a map[string][]byte oracle, across geometries
// that force chaining, resizing, big keys and namespaces.
func TestQuickKVModelEquivalence(t *testing.T) {
	configs := []Config{
		{Mode: Allocator, Bins: 4, VariableKV: true},
		{Mode: Allocator, Bins: 4, VariableKV: true, Resizable: true, ChunkBins: 2},
		{Mode: Allocator, Bins: 16, VariableKV: true, Namespaces: true, Hash: 1},
		{Mode: Allocator, Bins: 8, ValueSize: 8},
	}
	keyFor := func(sel uint8, cfgVariable bool) []byte {
		// A small pool of keys, some sharing 8-byte prefixes, some > 8 B.
		pool := []string{
			"a", "b", "ab", "ab\x00", "longkey-1", "longkey-2",
			"prefix-share-AAAA", "prefix-share-BBBB", "k8bytes!",
		}
		if !cfgVariable {
			pool = []string{"a", "b", "c", "dd", "ee", "ff", "gg", "hh"}
		}
		return []byte(pool[int(sel)%len(pool)])
	}
	for ci, cfg := range configs {
		cfg := cfg
		f := func(ops []uint16) bool {
			tb := MustNew(cfg)
			h := tb.MustHandle()
			model := map[string][]byte{}
			mkVal := func(i int) []byte {
				if cfg.VariableKV {
					return bytes.Repeat([]byte{byte(i)}, 1+i%40)
				}
				v := make([]byte, 8)
				v[0] = byte(i)
				return v
			}
			var ns uint16
			for i, op := range ops {
				if cfg.Namespaces {
					ns = uint16(op>>8) % 3
				}
				key := keyFor(uint8(op), cfg.VariableKV)
				mkey := fmt.Sprintf("%d/%s", ns, key)
				switch op % 3 {
				case 0:
					err := h.InsertKV(ns, key, mkVal(i))
					_, exists := model[mkey]
					if exists != errors.Is(err, ErrExists) {
						t.Logf("cfg %d: insert(%q) err=%v exists=%v", ci, key, err, exists)
						return false
					}
					if err == nil {
						model[mkey] = mkVal(i)
					}
				case 1:
					ok := h.DeleteKV(ns, key)
					if _, exists := model[mkey]; ok != exists {
						t.Logf("cfg %d: delete(%q)=%v exists=%v", ci, key, ok, exists)
						return false
					}
					delete(model, mkey)
				default:
					got, ok := h.GetKV(ns, key)
					want, exists := model[mkey]
					if ok != exists || (ok && !bytes.Equal(got, want)) {
						t.Logf("cfg %d: get(%q)=(%q,%v) want (%q,%v)", ci, key, got, ok, want, exists)
						return false
					}
				}
			}
			// Final sweep.
			for mkey, want := range model {
				var ns uint16
				var key string
				fmt.Sscanf(mkey, "%d/", &ns)
				key = mkey[len(fmt.Sprintf("%d/", ns)):]
				got, ok := h.GetKV(ns, []byte(key))
				if !ok || !bytes.Equal(got, want) {
					t.Logf("cfg %d: final get(%q) = (%q,%v), want %q", ci, key, got, ok, want)
					return false
				}
			}
			return true
		}
		quickCheck(t, fmt.Sprintf("config %d", ci), f, 50)
	}
}

// Epoch-GC view integrity: readers hold GetKV views across concurrent
// deletes and re-inserts; a view must keep its original contents until the
// reading handle advances its own epoch, because blocks cannot be recycled
// while any handle lags.
func TestKVEpochViewIntegrityUnderChurn(t *testing.T) {
	tb := MustNew(Config{
		Mode: Allocator, Bins: 256, ValueSize: 16,
		EpochGC: true, MaxThreads: 8,
	})
	const keys = 32
	loader := tb.MustHandle()
	val := func(gen byte) []byte { return bytes.Repeat([]byte{gen}, 16) }
	for i := 0; i < keys; i++ {
		if err := loader.InsertKV(0, []byte{byte(i)}, val(1)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	// Churner: delete + reinsert with a new generation byte, advancing its
	// epoch so blocks retire and recycle.
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := tb.MustHandle()
		gen := byte(2)
		for !stop.Load() {
			for i := 0; i < keys; i++ {
				h.DeleteKV(0, []byte{byte(i)})
				h.InsertKV(0, []byte{byte(i)}, val(gen))
			}
			h.AdvanceEpoch()
			gen++
			if gen == 0 {
				gen = 2
			}
		}
	}()
	// Readers: take a view, verify it is internally uniform (all 16 bytes
	// the same generation) now and after a pause, then advance.
	var violations atomic.Int64
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			h := tb.MustHandle()
			for n := 0; n < 4000; n++ {
				v, ok := h.GetKV(0, []byte{byte(n % keys)})
				if !ok {
					continue // momentarily deleted
				}
				first := v[0]
				uniform := true
				for _, b := range v {
					if b != first {
						uniform = false
					}
				}
				if !uniform {
					violations.Add(1)
				}
				// Hold the view across some work, then re-check: without
				// the epoch pin a recycled block could mutate under us into
				// a mix of generations.
				for spin := 0; spin < 50; spin++ {
					_ = spin
				}
				for _, b := range v {
					if b != first {
						// The block was recycled for ANOTHER KEY while we
						// hold the view — only legal after OUR advance.
						violations.Add(1)
						break
					}
				}
				if n%64 == 0 {
					h.AdvanceEpoch()
				}
			}
		}(r)
	}
	readers.Wait()
	stop.Store(true)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d view integrity violations", v)
	}
}
