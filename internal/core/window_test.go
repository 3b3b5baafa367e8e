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

// TestPrefetchWindowResolution pins the Config.PrefetchWindow contract:
// zero or less = default, always clamped to the batch length.
func TestPrefetchWindowResolution(t *testing.T) {
	cases := []struct {
		cfg, n, want int
	}{
		{0, 4096, defaultPrefetchWindow},
		{0, 4, 4},
		{8, 4096, 8},
		{8, 3, 3},
		{-1, 4096, defaultPrefetchWindow},
		{1, 100, 1},
		{0, 0, 0},
	}
	for _, c := range cases {
		tb := MustNew(Config{Bins: 16, PrefetchWindow: c.cfg})
		if got := tb.prefetchWindow(c.n); got != c.want {
			t.Errorf("prefetchWindow(cfg=%d, n=%d) = %d, want %d", c.cfg, c.n, got, c.want)
		}
	}
}

// TestExecStopOnFailMidWindow places the failing op in the middle of an
// in-flight prefetch window: execution must stop exactly there even though
// later ops' bins were already prefetched and memoized.
func TestExecStopOnFailMidWindow(t *testing.T) {
	tb := MustNew(Config{Bins: 256, PrefetchWindow: 16})
	h := tb.MustHandle()
	if _, err := h.Insert(9999, 1); err != nil {
		t.Fatal(err)
	}
	const n = 64
	const failAt = 20 // window 2 of 4, position 4 of 16
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpInsert, Key: uint64(i + 1), Value: uint64(i)}
	}
	ops[failAt] = Op{Kind: OpInsert, Key: 9999, Value: 2} // duplicate → fails
	if got := h.Exec(ops, true); got != failAt+1 {
		t.Fatalf("Exec executed %d ops, want %d", got, failAt+1)
	}
	if ops[failAt].OK || !errors.Is(ops[failAt].Err, ErrExists) || ops[failAt].Result != 1 {
		t.Fatalf("failing op = %+v", ops[failAt])
	}
	for i := 0; i < failAt; i++ {
		if !ops[i].OK {
			t.Fatalf("op %d before the failure did not run: %+v", i, ops[i])
		}
	}
	for i := failAt + 1; i < n; i++ {
		if ops[i].OK || ops[i].Err != nil {
			t.Fatalf("op %d after the failure was touched: %+v", i, ops[i])
		}
		if _, ok := h.Get(ops[i].Key); ok {
			t.Fatalf("op %d after the failure was executed", i)
		}
	}
}

// TestExecWindowCrossesConcurrentResize runs windowed Get batches much
// larger than the window while another handle's inserts force live index
// migrations: a bin memoized against the drained index must be recomputed
// against its successor, never read stale.
func TestExecWindowCrossesConcurrentResize(t *testing.T) {
	tb := MustNew(Config{Bins: 8, Resizable: true, ChunkBins: 4, PrefetchWindow: 4, MaxThreads: 8})
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
	ops := make([]Op, 128)
	for round := 0; tb.resizes.Load() < startResizes+3 && round < 1_000_000; round++ {
		for i := range ops {
			ops[i] = Op{Kind: OpGet, Key: uint64((round*len(ops)+i)%prepop) + 1}
		}
		reader.Exec(ops, false)
		for i := range ops {
			if !ops[i].OK || ops[i].Result != ops[i].Key^0xabcd {
				t.Errorf("round %d op %d: Get(%d) = %+v", round, i, ops[i].Key, ops[i])
				stop.Store(true)
				wg.Wait()
				t.FailNow()
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if tb.resizes.Load() < startResizes+3 {
		t.Fatal("background inserts never forced a resize")
	}
}

// oracleExec executes ops one at a time through the public per-request API,
// mirroring execOneAt's result mapping — the reference the windowed engine
// must match byte for byte.
func oracleExec(h *Handle, ops []Op, stopOnFail bool) int {
	done := 0
	for i := range ops {
		op := &ops[i]
		op.Err = nil
		switch op.Kind {
		case OpGet:
			op.Result, op.OK = h.Get(op.Key)
		case OpPut:
			op.Result, op.OK = h.Put(op.Key, op.Value)
		case OpInsert:
			op.Result, op.Err = h.Insert(op.Key, op.Value)
			op.OK = op.Err == nil
		case OpInsertShadow:
			op.Result, op.Err = h.InsertShadow(op.Key, op.Value)
			op.OK = op.Err == nil
		case OpDelete:
			op.Result, op.OK = h.Delete(op.Key)
		case OpCommitShadow:
			op.OK = h.CommitShadow(op.Key, op.Value != 0)
		}
		done++
		if stopOnFail && !op.OK {
			break
		}
	}
	return done
}

// TestExecWindowedMatchesOracle is the property test of the sliding-window
// engine: for random mixed-kind batches over a colliding keyspace, windowed
// Exec must produce results identical to sequential per-request execution —
// across window sizes, stopOnFail, resizable and single-thread tables.
func TestExecWindowedMatchesOracle(t *testing.T) {
	kinds := []OpKind{OpGet, OpPut, OpInsert, OpInsertShadow, OpDelete, OpCommitShadow}
	for _, st := range []bool{false, true} {
		for _, w := range []int{1, 3, 16, 1 << 20} {
			name := fmt.Sprintf("window=%d,singlethread=%v", w, st)
			rng := rand.New(rand.NewSource(int64(w)*7 + 1))
			// Tiny resizable tables so batches regularly cross migrations.
			mk := func(window int) *Table {
				return MustNew(Config{Bins: 8, Resizable: true, ChunkBins: 4,
					PrefetchWindow: window, SingleThread: st})
			}
			wt, ot := mk(w), mk(1)
			wh, oh := wt.MustHandle(), ot.MustHandle()
			for round := 0; round < 60; round++ {
				n := 1 + rng.Intn(200)
				ops := make([]Op, n)
				for i := range ops {
					ops[i] = Op{
						Kind:  kinds[rng.Intn(len(kinds))],
						Key:   uint64(1 + rng.Intn(48)), // force collisions
						Value: uint64(rng.Intn(1000)),
					}
				}
				oops := append([]Op(nil), ops...)
				stopOnFail := round%4 == 0
				wn := wh.Exec(ops, stopOnFail)
				on := oracleExec(oh, oops, stopOnFail)
				if wn != on {
					t.Fatalf("%s round %d: windowed executed %d, oracle %d", name, round, wn, on)
				}
				for i := 0; i < wn; i++ {
					if ops[i].Result != oops[i].Result || ops[i].OK != oops[i].OK || !errors.Is(ops[i].Err, oops[i].Err) {
						t.Fatalf("%s round %d op %d (%v key=%d): windowed %+v, oracle %+v",
							name, round, i, ops[i].Kind, ops[i].Key, ops[i], oops[i])
					}
				}
			}
			// Final table contents must agree too.
			for k := uint64(1); k <= 48; k++ {
				wv, wok := wh.Get(k)
				ov, ook := oh.Get(k)
				if wv != ov || wok != ook {
					t.Fatalf("%s: final Get(%d): windowed (%d,%v), oracle (%d,%v)", name, k, wv, wok, ov, ook)
				}
			}
		}
	}
}

// TestGetKVBatchWindowSizes runs the two-level KV pipeline across window
// sizes (including degenerate w=1 and one wider than the batch) with hits and misses
// interleaved, checking values against per-request GetKV.
func TestGetKVBatchWindowSizes(t *testing.T) {
	for _, w := range []int{1, 5, 16, 1 << 20} {
		tb := MustNew(Config{Mode: Allocator, Bins: 64, Resizable: true, ChunkBins: 16,
			PrefetchWindow: w, VariableKV: true})
		h := tb.MustHandle()
		const present = 200
		for i := 0; i < present; i++ {
			key := []byte(fmt.Sprintf("key-%03d", i))
			val := []byte(fmt.Sprintf("value-%d", i*i))
			if err := h.InsertKV(0, key, val); err != nil {
				t.Fatal(err)
			}
		}
		reqs := make([]KVGet, 300)
		for i := range reqs {
			reqs[i].Key = []byte(fmt.Sprintf("key-%03d", i)) // i >= present miss
		}
		h.GetKVBatch(reqs)
		for i := range reqs {
			want, wantOK := h.GetKV(0, reqs[i].Key)
			if reqs[i].OK != wantOK || !bytes.Equal(reqs[i].Value, want) {
				t.Fatalf("w=%d req %d: batch (%q,%v), GetKV (%q,%v)",
					w, i, reqs[i].Value, reqs[i].OK, want, wantOK)
			}
		}
	}
}
