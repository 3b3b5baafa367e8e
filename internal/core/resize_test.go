package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"
)

func TestResizeGrowsAndPreservesAllKeys(t *testing.T) {
	tb := MustNew(Config{Bins: 4, Resizable: true, ChunkBins: 2})
	h := tb.MustHandle()
	const n = 5000
	for i := uint64(0); i < n; i++ {
		if _, err := h.Insert(i, i*3); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tb.Stats().Resizes == 0 {
		t.Fatal("expected at least one resize")
	}
	if tb.NumBins() <= 4 {
		t.Fatalf("bins = %d, expected growth", tb.NumBins())
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := h.Get(i); !ok || v != i*3 {
			t.Fatalf("after resize Get(%d) = (%d,%v), want (%d,true)", i, v, ok, i*3)
		}
	}
}

func TestResizePreservesDeletesAndPuts(t *testing.T) {
	tb := MustNew(Config{Bins: 4, Resizable: true, ChunkBins: 2})
	h := tb.MustHandle()
	const n = 2000
	for i := uint64(0); i < n; i++ {
		h.Insert(i, i)
	}
	for i := uint64(0); i < n; i += 2 {
		if _, ok := h.Delete(i); !ok {
			t.Fatalf("delete %d", i)
		}
	}
	for i := uint64(1); i < n; i += 2 {
		if _, ok := h.Put(i, i+1000000); !ok {
			t.Fatalf("put %d", i)
		}
	}
	// Force more growth after the mutations.
	for i := uint64(n); i < 3*n; i++ {
		h.Insert(i, i)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := h.Get(i)
		if i%2 == 0 {
			if ok {
				t.Fatalf("deleted key %d reappeared after resize", i)
			}
		} else if !ok || v != i+1000000 {
			t.Fatalf("Get(%d) = (%d,%v)", i, v, ok)
		}
	}
}

func TestResizePreservesShadowEntries(t *testing.T) {
	tb := MustNew(Config{Bins: 4, Resizable: true, ChunkBins: 2})
	h := tb.MustHandle()
	h.InsertShadow(12345, 999)
	// Trigger growth.
	for i := uint64(0); i < 2000; i++ {
		h.Insert(i, i)
	}
	if tb.Stats().Resizes == 0 {
		t.Fatal("expected a resize")
	}
	if _, ok := h.Get(12345); ok {
		t.Fatal("shadow key became visible across resize")
	}
	if !h.CommitShadow(12345, true) {
		t.Fatal("shadow entry lost during migration")
	}
	if v, ok := h.Get(12345); !ok || v != 999 {
		t.Fatalf("Get after commit = (%d,%v)", v, ok)
	}
}

// The paper's Figure 8 scenario: Gets proceed while the index migrates.
func TestConcurrentGetsDuringResize(t *testing.T) {
	tb := MustNew(Config{Bins: 64, Resizable: true, ChunkBins: 16, MaxThreads: 16})
	loader := tb.MustHandle()
	const prepop = 2000
	for i := uint64(0); i < prepop; i++ {
		loader.Insert(i, i*7)
	}
	var stop atomic.Bool
	var wrong atomic.Int64
	var wg sync.WaitGroup
	readers := 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			h := tb.MustHandle()
			x := seed*2654435761 + 1
			for !stop.Load() {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				k := x % prepop
				if v, ok := h.Get(k); !ok || v != k*7 {
					wrong.Add(1)
				}
			}
		}(uint64(r + 1))
	}
	// Writer drives repeated resizes.
	for i := uint64(prepop); i < prepop+30000; i++ {
		loader.Insert(i, i*7)
	}
	stop.Store(true)
	wg.Wait()
	if w := wrong.Load(); w != 0 {
		t.Fatalf("%d inconsistent Gets during resize", w)
	}
	if tb.Stats().Resizes == 0 {
		t.Fatal("no resize happened; test did not exercise migration")
	}
}

// Multiple writers slam Inserts so several threads hit the full index at
// once and must collaborate as helpers (§3.2.5 Collaboration).
func TestParallelResizeHelpers(t *testing.T) {
	tb := MustNew(Config{Bins: 8, Resizable: true, ChunkBins: 1, MaxThreads: 16})
	const writers = 8
	const perWriter = 4000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			h := tb.MustHandle()
			for i := uint64(0); i < perWriter; i++ {
				k := base*perWriter + i
				if _, err := h.Insert(k, k+1); err != nil {
					t.Errorf("insert %d: %v", k, err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	h := tb.MustHandle()
	for w := uint64(0); w < writers; w++ {
		for i := uint64(0); i < perWriter; i++ {
			k := w*perWriter + i
			if v, ok := h.Get(k); !ok || v != k+1 {
				t.Fatalf("Get(%d) = (%d,%v)", k, v, ok)
			}
		}
	}
	s := tb.Stats()
	if s.Resizes == 0 {
		t.Fatal("expected resizes")
	}
	t.Logf("resizes=%d helpers=%d chunks=%d keysMoved=%d bins=%d",
		s.Resizes, s.ResizeHelpers, s.ChunksMoved, s.KeysMoved, s.Bins)
}

// Puts racing the migration: every Put must either land in the old slot
// before its transfer or be retried into the new index — no lost updates.
func TestPutsRacingResize(t *testing.T) {
	tb := MustNew(Config{Bins: 16, Resizable: true, ChunkBins: 4, MaxThreads: 8})
	loader := tb.MustHandle()
	const keys = 512
	for i := uint64(0); i < keys; i++ {
		loader.Insert(i, 0)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	// Each putter owns a disjoint key range and increments values; the final
	// value must equal its counter.
	putters := 4
	finals := make([]uint64, keys)
	var mu sync.Mutex
	for p := 0; p < putters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := tb.MustHandle()
			lo := uint64(p) * keys / uint64(putters)
			hi := (uint64(p) + 1) * keys / uint64(putters)
			counts := make(map[uint64]uint64)
			for !stop.Load() {
				for k := lo; k < hi; k++ {
					counts[k]++
					if _, ok := h.Put(k, counts[k]); !ok {
						t.Errorf("Put(%d) lost the key", k)
						return
					}
				}
			}
			mu.Lock()
			for k, c := range counts {
				finals[k] = c
			}
			mu.Unlock()
		}(p)
	}
	// Drive repeated growth with inserts.
	for i := uint64(keys); i < keys+20000; i++ {
		loader.Insert(i, 1)
	}
	stop.Store(true)
	wg.Wait()
	h := tb.MustHandle()
	for k := uint64(0); k < keys; k++ {
		v, ok := h.Get(k)
		if !ok {
			t.Fatalf("key %d vanished", k)
		}
		if v != finals[k] {
			t.Fatalf("key %d = %d, want %d (lost update across transfer)", k, v, finals[k])
		}
	}
	if tb.Stats().Resizes == 0 {
		t.Fatal("no resize exercised")
	}
}

// TestDrainedIndexReclaimed: no thread publishes the index it works on, so
// the only thing that frees a drained index is the Go GC, once neither the
// table's current pointer nor an in-flight pipeline entry references it.
// A pipeline whose inserts resize the table, flushed, must leave the first
// index collectable and itself usable.
func TestDrainedIndexReclaimed(t *testing.T) {
	tb := MustNew(Config{Bins: 4, Resizable: true, ChunkBins: 2})
	h := tb.MustHandle()
	first := weak.Make(tb.current.Load())
	var failed int
	pl := h.Pipeline(PipelineOpts{Window: 8, OnComplete: func(op *Op) {
		if op.Kind == OpGet && (!op.OK || op.Result != op.Key*3) || op.Kind == OpInsert && op.Err != nil {
			failed++
		}
	}})
	const n = 2000
	for k := uint64(0); k < n; k++ {
		pl.Insert(k, k*3)
	}
	pl.Flush()
	if tb.Stats().Resizes < 2 {
		t.Fatalf("resizes = %d, want >= 2 (the first index must be drained and left behind)", tb.Stats().Resizes)
	}
	runtime.GC()
	if first.Value() != nil {
		t.Fatal("drained first index still reachable after Flush + GC")
	}
	for k := uint64(0); k < n; k++ {
		pl.Get(k)
	}
	pl.Close()
	if failed != 0 {
		t.Fatalf("%d of %d ops failed around the reclaimed index", failed, 2*n)
	}

	// An idle handle — a few ops, then nothing — must not pin the index
	// they ran on once a second handle has resized the table away. ops
	// returns the pipeline it ran on, kept open like a connection's.
	idle := func(t *testing.T, cfg Config, ops func(h *Handle) any) {
		tb := MustNew(cfg)
		h := tb.MustHandle()
		first := weak.Make(tb.current.Load())
		pl := ops(h)
		other := tb.MustHandle()
		for k := uint64(1); tb.Stats().Resizes < 2; k++ {
			if cfg.Mode == Allocator {
				if err := other.InsertKV(0, []byte{byte(k), byte(k >> 8), byte(k >> 16)}, []byte("v")); err != nil {
					t.Fatal(err)
				}
			} else if _, err := other.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		if first.Value() != nil {
			t.Fatal("an idle handle's completed ops keep the drained first index reachable")
		}
		runtime.KeepAlive(h)
		runtime.KeepAlive(pl)
	}
	fixed := Config{Bins: 4, Resizable: true, ChunkBins: 2}
	t.Run("idle-exec", func(t *testing.T) {
		idle(t, fixed, func(h *Handle) any {
			h.Exec([]Op{{Kind: OpGet, Key: 1}, {Kind: OpGet, Key: 2}}, false)
			return nil
		})
	})
	t.Run("idle-pipeline", func(t *testing.T) {
		idle(t, fixed, func(h *Handle) any {
			pl := h.Pipeline(PipelineOpts{})
			pl.Get(1)
			pl.Get(2)
			pl.Flush()
			return pl
		})
	})
	t.Run("idle-kvpipeline", func(t *testing.T) {
		cfg := Config{Bins: 4, Resizable: true, ChunkBins: 2, Mode: Allocator, VariableKV: true}
		idle(t, cfg, func(h *Handle) any {
			pl := h.KVPipeline(KVPipelineOpts{})
			pl.Get(0, []byte("a"))
			pl.Get(0, []byte("b"))
			pl.Flush()
			return pl
		})
	})
}

func TestResizeDisabledNeverResizes(t *testing.T) {
	tb := MustNew(Config{Bins: 4})
	h := tb.MustHandle()
	var sawFull bool
	for i := uint64(0); i < 10000; i++ {
		if _, err := h.Insert(i, i); err != nil {
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("non-resizable table absorbed 10000 keys into 4 bins")
	}
	if tb.Stats().Resizes != 0 {
		t.Fatal("resize happened despite Resizable=false")
	}
}

func TestNestedResizes(t *testing.T) {
	// Tiny chunk and tiny index force many back-to-back resizes; with the
	// ×8 then ×4 growth factors a few thousand keys cross several
	// generations.
	tb := MustNew(Config{Bins: 1, Resizable: true, ChunkBins: 1, LinkRatio: 1, MaxThreads: 8})
	var wg sync.WaitGroup
	const writers = 4
	const perWriter = 3000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			h := tb.MustHandle()
			for i := uint64(0); i < perWriter; i++ {
				k := base*perWriter + i
				if _, err := h.Insert(k, ^k); err != nil {
					t.Errorf("insert %d: %v", k, err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	h := tb.MustHandle()
	for k := uint64(0); k < writers*perWriter; k++ {
		if v, ok := h.Get(k); !ok || v != ^k {
			t.Fatalf("Get(%d) = (%d,%v)", k, v, ok)
		}
	}
	if tb.Stats().Resizes < 2 {
		t.Fatalf("resizes = %d, want several", tb.Stats().Resizes)
	}
}

func TestResizeWithGOMAXPROCS1(t *testing.T) {
	// Cooperative progress must not rely on parallelism.
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	tb := MustNew(Config{Bins: 2, Resizable: true, ChunkBins: 1})
	h := tb.MustHandle()
	for i := uint64(0); i < 1000; i++ {
		if _, err := h.Insert(i, i); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 1000; i++ {
		if _, ok := h.Get(i); !ok {
			t.Fatalf("lost key %d", i)
		}
	}
}
