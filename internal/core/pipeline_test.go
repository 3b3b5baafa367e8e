package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPipelineWindowSemantics pins the completion contract: a request
// completes exactly when a full window of newer requests has been enqueued
// behind it, and Flush completes the remainder in order.
func TestPipelineWindowSemantics(t *testing.T) {
	tb := MustNew(Config{Bins: 256})
	h := tb.MustHandle()
	const w = 8
	var completed []uint64
	pl := h.Pipeline(PipelineOpts{Window: w, OnComplete: func(op *Op) {
		completed = append(completed, op.Key)
	}})
	if pl.Window() != w {
		t.Fatalf("Window() = %d, want %d", pl.Window(), w)
	}
	for k := uint64(0); k < w; k++ {
		pl.Insert(k, k*10)
	}
	if len(completed) != 0 || pl.InFlight() != w {
		t.Fatalf("after %d enqueues: %d completions, %d in flight", w, len(completed), pl.InFlight())
	}
	pl.Insert(w, w*10)
	if len(completed) != 1 || completed[0] != 0 || pl.InFlight() != w {
		t.Fatalf("after enqueue %d: completions %v, %d in flight", w+1, completed, pl.InFlight())
	}
	pl.Flush()
	if len(completed) != w+1 || pl.InFlight() != 0 {
		t.Fatalf("after Flush: %d completions, %d in flight", len(completed), pl.InFlight())
	}
	for i, k := range completed {
		if k != uint64(i) {
			t.Fatalf("completion %d is key %d: order not preserved (%v)", i, k, completed)
		}
	}
	// The inserts took effect.
	for k := uint64(0); k <= w; k++ {
		if v, ok := h.Get(k); !ok || v != k*10 {
			t.Fatalf("Get(%d) = (%d,%v)", k, v, ok)
		}
	}
	pl.Close()
	pl.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("enqueue after Close did not panic")
		}
	}()
	pl.Get(1)
}

// TestPipelineWindowResolution pins the PipelineOpts.Window contract: 0
// inherits the table's window and explicit values win.
func TestPipelineWindowResolution(t *testing.T) {
	cases := []struct {
		cfgW, optW, want int
	}{
		{0, 0, defaultPrefetchWindow},
		{8, 0, 8},
		{8, 32, 32},
		{0, -5, 1},
	}
	for _, c := range cases {
		tb := MustNew(Config{Bins: 16, PrefetchWindow: c.cfgW})
		pl := tb.MustHandle().Pipeline(PipelineOpts{Window: c.optW})
		if pl.Window() != c.want {
			t.Errorf("cfg=%d opts=%d: Window() = %d, want %d", c.cfgW, c.optW, pl.Window(), c.want)
		}
	}
}

// TestPipelineMatchesOracle is the streaming twin of
// TestExecWindowedMatchesOracle: random mixed-kind request streams fed one
// at a time through a Pipeline must complete in order with results
// identical to sequential per-request execution — across window sizes,
// burst patterns (Flush between bursts or a window kept primed across
// them), resizable and single-thread tables.
func TestPipelineMatchesOracle(t *testing.T) {
	kinds := []OpKind{OpGet, OpPut, OpInsert, OpInsertShadow, OpDelete, OpCommitShadow}
	for _, st := range []bool{false, true} {
		for _, w := range []int{1, 3, 16} {
			for _, flushBursts := range []bool{false, true} {
				name := fmt.Sprintf("window=%d,singlethread=%v,flush=%v", w, st, flushBursts)
				rng := rand.New(rand.NewSource(int64(w)*13 + 5))
				mk := func() *Table {
					return MustNew(Config{Bins: 8, Resizable: true, ChunkBins: 4, SingleThread: st})
				}
				pt, ot := mk(), mk()
				oh := ot.MustHandle()
				var got []Op
				pl := pt.MustHandle().Pipeline(PipelineOpts{Window: w, OnComplete: func(op *Op) {
					got = append(got, *op)
				}})
				var want []Op
				for round := 0; round < 40; round++ {
					n := 1 + rng.Intn(120)
					for i := 0; i < n; i++ {
						op := Op{
							Kind:  kinds[rng.Intn(len(kinds))],
							Key:   uint64(1 + rng.Intn(48)), // force collisions
							Value: uint64(rng.Intn(1000)),
						}
						oops := []Op{op}
						oracleExec(oh, oops, false)
						want = append(want, oops[0])
						pl.Enqueue(op)
					}
					if flushBursts {
						pl.Flush()
						if len(got) != len(want) {
							t.Fatalf("%s round %d: %d completions, oracle %d", name, round, len(got), len(want))
						}
					}
				}
				pl.Close()
				if len(got) != len(want) {
					t.Fatalf("%s: %d completions, oracle %d", name, len(got), len(want))
				}
				for i := range got {
					g, o := got[i], want[i]
					if g.Kind != o.Kind || g.Key != o.Key || g.Result != o.Result || g.OK != o.OK || !errors.Is(g.Err, o.Err) {
						t.Fatalf("%s op %d (%v key=%d): pipeline %+v, oracle %+v", name, i, o.Kind, o.Key, g, o)
					}
				}
				// Final table contents must agree too.
				ph := pt.MustHandle()
				for k := uint64(1); k <= 48; k++ {
					pv, pok := ph.Get(k)
					ov, ook := oh.Get(k)
					if pv != ov || pok != ook {
						t.Fatalf("%s: final Get(%d): pipeline (%d,%v), oracle (%d,%v)", name, k, pv, pok, ov, ook)
					}
				}
			}
		}
	}
}

// TestPipelineReentrantEnqueue drives enqueues from inside OnComplete: each
// completed seed Get chains a follow-up Get. Re-entrant requests must be
// admitted (growing the engine ring past the window if needed), complete in
// global enqueue order, and not be dropped by Flush or Close.
func TestPipelineReentrantEnqueue(t *testing.T) {
	tb := MustNew(Config{Bins: 1 << 10})
	h := tb.MustHandle()
	const n = 500
	for k := uint64(0); k < 2*n; k++ {
		if _, err := h.Insert(k, k^0x5a5a); err != nil {
			t.Fatal(err)
		}
	}
	var order []uint64
	var pl *Pipeline
	pl = h.Pipeline(PipelineOpts{Window: 4, OnComplete: func(op *Op) {
		if !op.OK || op.Result != op.Key^0x5a5a {
			t.Errorf("Get(%d) = %+v", op.Key, op)
		}
		order = append(order, op.Key)
		if op.Key < n {
			pl.Get(op.Key + n) // chain a follow-up from inside the callback
		}
	}})
	for k := uint64(0); k < n; k++ {
		pl.Get(k)
	}
	pl.Flush()
	if len(order) != 2*n {
		t.Fatalf("completed %d ops, want %d", len(order), 2*n)
	}
	// Every seed key and every chained key completed exactly once.
	seen := make(map[uint64]int)
	for _, k := range order {
		seen[k]++
	}
	for k := uint64(0); k < 2*n; k++ {
		if seen[k] != 1 {
			t.Fatalf("key %d completed %d times", k, seen[k])
		}
	}
	// Order preservation: chained key k+n was enqueued at k's completion,
	// so it must appear after key k.
	pos := make(map[uint64]int)
	for i, k := range order {
		pos[k] = i
	}
	for k := uint64(0); k < n; k++ {
		if pos[k+n] <= pos[k] {
			t.Fatalf("chained key %d completed at %d, before its trigger %d at %d",
				k+n, pos[k+n], k, pos[k])
		}
	}
}

// TestPipelineReentrantStorm grows the ring far past the window from a
// single completion, exercising the grow path while entries are in flight,
// and checks that the completing op still reads back unchanged after it.
func TestPipelineReentrantStorm(t *testing.T) {
	tb := MustNew(Config{Bins: 1 << 8})
	h := tb.MustHandle()
	for k := uint64(0); k < 300; k++ {
		h.Insert(k, k+7)
	}
	completions := 0
	var pl *Pipeline
	pl = h.Pipeline(PipelineOpts{Window: 2, OnComplete: func(op *Op) {
		if !op.OK || op.Result != op.Key+7 {
			t.Errorf("Get(%d) = %+v", op.Key, op)
		}
		completions++
		if op.Key == 0 {
			for k := uint64(100); k < 300; k++ {
				pl.Get(k) // burst of 200 from one callback, window 2
			}
			if op.Key != 0 || op.Result != 7 {
				t.Errorf("after the burst the callback's own op reads %+v, want Get(0) = 7", op)
			}
		}
	}})
	for k := uint64(0); k < 10; k++ {
		pl.Get(k)
	}
	pl.Close()
	if completions != 210 {
		t.Fatalf("completed %d ops, want 210", completions)
	}
}

// TestPipelineCloseInsideCallback pins the documented contract that Flush
// and Close are no-ops from inside OnComplete: the pipeline stays open,
// later enqueues do not panic, and a later top-level Close still
// completes everything in flight.
func TestPipelineCloseInsideCallback(t *testing.T) {
	tb := MustNew(Config{Bins: 256})
	h := tb.MustHandle()
	completions := 0
	var pl *Pipeline
	pl = h.Pipeline(PipelineOpts{Window: 4, OnComplete: func(op *Op) {
		completions++
		pl.Close() // documented no-op
		pl.Flush() // likewise
	}})
	const n = 20
	for k := uint64(0); k < n; k++ {
		pl.Insert(k, k) // must not panic after the first completion
	}
	pl.Close()
	if completions != n {
		t.Fatalf("completed %d ops, want %d", completions, n)
	}
	for k := uint64(0); k < n; k++ {
		if _, ok := h.Get(k); !ok {
			t.Fatalf("key %d missing after Close", k)
		}
	}
}

// TestPipelineCrossesConcurrentResize keeps one long-lived pipeline
// streaming Gets while another handle's inserts force live index
// migrations: a bin memoized at enqueue time against an index that is
// drained before the op executes must be recomputed against its successor,
// never read stale.
func TestPipelineCrossesConcurrentResize(t *testing.T) {
	tb := MustNew(Config{Bins: 8, Resizable: true, ChunkBins: 4, MaxThreads: 8})
	h := tb.MustHandle()
	const prepop = 512
	for k := uint64(1); k <= prepop; k++ {
		if _, err := h.Insert(k, k^0xabcd); err != nil {
			t.Fatal(err)
		}
	}
	startResizes := tb.resizes.Load()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hw := tb.MustHandle()
		for k := uint64(prepop + 1); !stop.Load(); k++ {
			if _, err := hw.Insert(k, 1); err != nil {
				t.Errorf("background insert: %v", err)
				return
			}
		}
	}()
	reader := tb.MustHandle()
	failed := false
	pl := reader.Pipeline(PipelineOpts{Window: 4, OnComplete: func(op *Op) {
		if !op.OK || op.Result != op.Key^0xabcd {
			t.Errorf("Get(%d) = %+v", op.Key, op)
			failed = true
		}
	}})
	for i := 0; tb.resizes.Load() < startResizes+3 && i < 50_000_000 && !failed; i++ {
		pl.Get(uint64(i%prepop) + 1)
	}
	pl.Close()
	stop.Store(true)
	wg.Wait()
	if failed {
		t.FailNow()
	}
	if tb.resizes.Load() < startResizes+3 {
		t.Fatal("background inserts never forced a resize")
	}
}

// TestKVPipelineMatchesGetKV streams Allocator-mode lookups (hits and
// misses interleaved) through KVPipeline across window sizes, checking
// every completion against per-request GetKV and the in-order contract.
func TestKVPipelineMatchesGetKV(t *testing.T) {
	for _, w := range []int{1, 5, 16} {
		tb := MustNew(Config{Mode: Allocator, Bins: 64, Resizable: true, ChunkBins: 16,
			VariableKV: true})
		h := tb.MustHandle()
		const present = 200
		for i := 0; i < present; i++ {
			key := []byte(fmt.Sprintf("key-%03d", i))
			val := []byte(fmt.Sprintf("value-%d", i*i))
			if err := h.InsertKV(0, key, val); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		check := tb.MustHandle()
		pl := h.KVPipeline(KVPipelineOpts{Window: w, OnComplete: func(r *KVGet) {
			wantKey := []byte(fmt.Sprintf("key-%03d", next))
			if !bytes.Equal(r.Key, wantKey) {
				t.Fatalf("w=%d completion %d: key %q, want %q (order)", w, next, r.Key, wantKey)
			}
			want, wantOK := check.GetKV(0, r.Key)
			if r.OK != wantOK || !bytes.Equal(r.Value, want) {
				t.Fatalf("w=%d req %d: pipeline (%q,%v), GetKV (%q,%v)", w, next, r.Value, r.OK, want, wantOK)
			}
			next++
		}})
		keys := make([][]byte, 300)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key-%03d", i)) // i >= present miss
		}
		for _, k := range keys {
			pl.Get(0, k)
		}
		pl.Close()
		if next != len(keys) {
			t.Fatalf("w=%d: completed %d lookups, want %d", w, next, len(keys))
		}
	}
}

// TestKVPipelineWrongModePanics: KVPipeline requires Allocator mode.
func TestKVPipelineWrongModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("KVPipeline on an Inlined table did not panic")
		}
	}()
	MustNew(Config{Bins: 16}).MustHandle().KVPipeline(KVPipelineOpts{})
}

// TestKVPipelineReentrantEnqueue chains a second lookup from inside
// OnComplete, covering the KV engine's grow path under in-flight entries,
// and has one completion enqueue more lookups than the ring holds, then
// read its own request back unchanged.
func TestKVPipelineReentrantEnqueue(t *testing.T) {
	tb := MustNew(Config{Mode: Allocator, Bins: 256, VariableKV: true})
	h := tb.MustHandle()
	const n, burst = 100, 20 // burst: more than the window-3 ring's 8 entries
	for i := 0; i < 2*n; i++ {
		if err := h.InsertKV(0, []byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	chained := make([][]byte, 0, n)
	completions := 0
	var pl *KVPipeline
	pl = h.KVPipeline(KVPipelineOpts{Window: 3, OnComplete: func(r *KVGet) {
		if !r.OK {
			t.Errorf("lookup %q missed", r.Key)
		}
		completions++
		if completions == 1 {
			for i := 0; i < burst; i++ {
				pl.Get(0, []byte(fmt.Sprintf("k%04d", 2*n-1-i)))
			}
			if string(r.Key) != "k0000" || string(r.Value) != "v0" {
				t.Errorf("after the burst the callback's own lookup reads %q = %q, want k0000 = v0", r.Key, r.Value)
			}
		}
		if completions <= n {
			key := []byte(fmt.Sprintf("k%04d", n+completions-1))
			chained = append(chained, key)
			pl.Get(0, key)
		}
	}})
	for i := 0; i < n; i++ {
		pl.Get(0, []byte(fmt.Sprintf("k%04d", i)))
	}
	pl.Flush()
	if completions != 2*n+burst {
		t.Fatalf("completed %d lookups, want %d", completions, 2*n+burst)
	}
}

// TestLocalPipeZeroAllocs: on a resizable table in steady state (grown, and
// not resizing during the measured burst) a burst of pipelined ops
// allocates nothing, through Store.Pipe (Get, Put) and through Pipeline
// (Get, Put, Insert, Delete).
func TestLocalPipeZeroAllocs(t *testing.T) {
	const keys, burstLen = 4096, 256
	tb := MustNew(Config{Bins: 1 << 6, Resizable: true})
	h := tb.MustHandle()
	for k := uint64(0); k < keys; k++ {
		if _, err := h.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	resizes := tb.Stats().Resizes
	if resizes == 0 {
		t.Fatal("table never grew")
	}
	failed := 0
	sp, err := tb.MustStore().Pipe(PipeOpts{Window: 16, OnComplete: func(c Completion) {
		if !c.OK || c.Err != nil {
			failed++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	pl := h.Pipeline(PipelineOpts{Window: 16, OnComplete: func(op *Op) {
		if !op.OK || op.Err != nil {
			failed++
		}
	}})
	k := uint64(0)
	bursts := []struct {
		name  string
		burst func()
	}{
		{"Store.Pipe", func() {
			for i := 0; i < burstLen; i++ {
				key := k % keys
				k++
				if sp.Get(key) != nil || sp.Put(key, key) != nil {
					failed++
				}
			}
			if sp.Flush() != nil {
				failed++
			}
		}},
		{"Pipeline", func() {
			for i := 0; i < burstLen; i++ {
				key := k % keys
				k++
				pl.Get(key)
				pl.Put(key, key)
				pl.Insert(key+keys, key) // a key outside the resident set,
				pl.Delete(key + keys)    // gone again in the same burst
			}
			pl.Flush()
		}},
	}
	for _, bc := range bursts {
		t.Run(bc.name, func(t *testing.T) {
			bc.burst() // warm
			if allocs := testing.AllocsPerRun(20, bc.burst); allocs != 0 {
				t.Fatalf("%.3f allocations per burst of %d, want 0", allocs, burstLen)
			}
		})
	}
	if failed != 0 {
		t.Fatalf("%d pipelined ops failed on resident keys", failed)
	}
	if got := tb.Stats().Resizes; got != resizes {
		t.Fatalf("resizes %d -> %d during the bursts; the measurement wants a steady table", resizes, got)
	}
}
