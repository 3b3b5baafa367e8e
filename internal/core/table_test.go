package core

import (
	"errors"
	"sync"
	"testing"
)

func newInlined(t *testing.T, cfg Config) (*Table, *Handle) {
	t.Helper()
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tb.Handle()
	if err != nil {
		t.Fatal(err)
	}
	return tb, h
}

func TestBasicInsertGetDelete(t *testing.T) {
	_, h := newInlined(t, Config{Bins: 64})
	if _, ok := h.Get(1); ok {
		t.Fatal("empty table returned a value")
	}
	if _, err := h.Insert(1, 100); err != nil {
		t.Fatal(err)
	}
	if v, ok := h.Get(1); !ok || v != 100 {
		t.Fatalf("Get(1) = (%d,%v), want (100,true)", v, ok)
	}
	if v, ok := h.Delete(1); !ok || v != 100 {
		t.Fatalf("Delete(1) = (%d,%v), want (100,true)", v, ok)
	}
	if _, ok := h.Get(1); ok {
		t.Fatal("deleted key still visible")
	}
	if _, ok := h.Delete(1); ok {
		t.Fatal("double delete reported success")
	}
}

func TestInsertDuplicateReturnsExisting(t *testing.T) {
	_, h := newInlined(t, Config{Bins: 64})
	if _, err := h.Insert(7, 70); err != nil {
		t.Fatal(err)
	}
	v, err := h.Insert(7, 71)
	if !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
	if v != 70 {
		t.Fatalf("existing value = %d, want 70", v)
	}
	// Original value unchanged.
	if got, _ := h.Get(7); got != 70 {
		t.Fatalf("value overwritten by failed insert: %d", got)
	}
}

func TestPutSemantics(t *testing.T) {
	_, h := newInlined(t, Config{Bins: 64})
	if _, ok := h.Put(5, 50); ok {
		t.Fatal("Put on missing key must fail")
	}
	h.Insert(5, 50)
	old, ok := h.Put(5, 55)
	if !ok || old != 50 {
		t.Fatalf("Put = (%d,%v), want (50,true)", old, ok)
	}
	if v, _ := h.Get(5); v != 55 {
		t.Fatalf("value after Put = %d, want 55", v)
	}
}

func TestPutPanicsOutsideInlined(t *testing.T) {
	tb := MustNew(Config{Mode: HashSet, Bins: 16})
	h := tb.MustHandle()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Put(1, 2)
}

func TestZeroKeyAndZeroValue(t *testing.T) {
	_, h := newInlined(t, Config{Bins: 64})
	if _, err := h.Insert(0, 0); err != nil {
		t.Fatal(err)
	}
	if v, ok := h.Get(0); !ok || v != 0 {
		t.Fatalf("Get(0) = (%d,%v), want (0,true)", v, ok)
	}
}

func TestReservedKeysRejected(t *testing.T) {
	_, h := newInlined(t, Config{Bins: 64})
	for _, k := range []uint64{TransferKeyEven, TransferKeyOdd} {
		if _, err := h.Insert(k, 1); !errors.Is(err, ErrReservedKey) {
			t.Errorf("Insert(%#x) err = %v, want ErrReservedKey", k, err)
		}
	}
}

func TestHashSetMode(t *testing.T) {
	tb := MustNew(Config{Mode: HashSet, Bins: 64})
	h := tb.MustHandle()
	if h.Contains(9) {
		t.Fatal("empty set contains 9")
	}
	if _, err := h.Insert(9, 0); err != nil {
		t.Fatal(err)
	}
	if !h.Contains(9) {
		t.Fatal("set does not contain 9 after insert")
	}
	if _, ok := h.Delete(9); !ok {
		t.Fatal("delete failed")
	}
	if h.Contains(9) {
		t.Fatal("set contains 9 after delete")
	}
}

func TestBinChainingBeyondPrimaryBucket(t *testing.T) {
	// Under the Modulo hash keys b, b+n, b+2n, ... all land in bin b, so one
	// bin's chain takes them: 15 inserts must succeed, the 16th must fail
	// with ErrFull (resizing disabled). The bin counts cover a mask (1, 4)
	// and a division (3) as the bin mapping.
	for _, n := range []uint64{1, 3, 4} {
		_, h := newInlined(t, Config{Bins: n, LinkRatio: 1})
		b := n - 1
		key := func(j uint64) uint64 { return b + j*n }
		for j := uint64(0); j < slotsPerBin; j++ {
			if _, err := h.Insert(key(j), j*10); err != nil {
				t.Fatalf("%d bins: insert %d: %v", n, j, err)
			}
		}
		if _, err := h.Insert(key(99), 1); !errors.Is(err, ErrFull) {
			t.Fatalf("%d bins: 16th insert err = %v, want ErrFull", n, err)
		}
		// All 15 are retrievable (exercises all three chained buckets),
		// by the sync Get and through a Pipeline, whose completion runs
		// the same body on the bin it mapped at issue.
		for j := uint64(0); j < slotsPerBin; j++ {
			if v, ok := h.Get(key(j)); !ok || v != j*10 {
				t.Fatalf("%d bins: Get(%d) = (%d,%v), want (%d,true)", n, key(j), v, ok, j*10)
			}
		}
		hits := 0
		pl := h.Pipeline(PipelineOpts{Window: 4, OnComplete: func(op *Op) {
			if op.OK && op.Result == (op.Key-b)/n*10 {
				hits++
			}
		}})
		for j := uint64(0); j < slotsPerBin; j++ {
			pl.Get(key(j))
		}
		pl.Close()
		if hits != slotsPerBin {
			t.Fatalf("%d bins: the pipeline found %d of %d keys", n, hits, slotsPerBin)
		}
		// Deleting frees slots for reuse instantly.
		if _, ok := h.Delete(key(4)); !ok {
			t.Fatalf("%d bins: delete failed", n)
		}
		if _, err := h.Insert(key(99), 990); err != nil {
			t.Fatalf("%d bins: insert after delete: %v", n, err)
		}
		if v, _ := h.Get(key(99)); v != 990 {
			t.Fatalf("%d bins: reused slot lost value", n)
		}
	}
}

func TestLinkExhaustionReturnsErrFull(t *testing.T) {
	// 4 bins but only 2 link buckets (ratio 2): the first bin to overflow
	// grabs link buckets; once they run out an overflowing insert fails.
	tb := MustNew(Config{Bins: 2, LinkRatio: 1})
	h := tb.MustHandle()
	// numLinks = max(bins/ratio, 2) = 2. Fill bin of key stream: keys
	// hashing to bin 0 are even keys under modulo.
	full := 0
	for i := uint64(0); i < 200; i += 2 {
		if _, err := h.Insert(i, i); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("unexpected err: %v", err)
			}
			full++
			break
		}
	}
	if full == 0 {
		t.Fatal("expected ErrFull after exhausting links")
	}
}

func TestShadowInsertLifecycle(t *testing.T) {
	_, h := newInlined(t, Config{Bins: 64})
	if _, err := h.InsertShadow(3, 30); err != nil {
		t.Fatal(err)
	}
	// Hidden from Get/Put/Delete.
	if _, ok := h.Get(3); ok {
		t.Fatal("shadow key visible to Get")
	}
	if _, ok := h.Put(3, 31); ok {
		t.Fatal("shadow key visible to Put")
	}
	if _, ok := h.Delete(3); ok {
		t.Fatal("shadow key visible to Delete")
	}
	// Conflicting inserts see the lock.
	if _, err := h.Insert(3, 99); !errors.Is(err, ErrShadow) {
		t.Fatalf("insert on shadow key err = %v, want ErrShadow", err)
	}
	if _, err := h.InsertShadow(3, 99); !errors.Is(err, ErrShadow) {
		t.Fatalf("shadow insert on shadow key err = %v, want ErrShadow", err)
	}
	// Commit publishes.
	if !h.CommitShadow(3, true) {
		t.Fatal("commit failed")
	}
	if v, ok := h.Get(3); !ok || v != 30 {
		t.Fatalf("Get after commit = (%d,%v), want (30,true)", v, ok)
	}
	// Commit on a non-shadow key fails.
	if h.CommitShadow(3, true) {
		t.Fatal("commit on valid key must fail")
	}
}

func TestShadowAbortReclaimsSlot(t *testing.T) {
	_, h := newInlined(t, Config{Bins: 64})
	h.InsertShadow(4, 40)
	if !h.CommitShadow(4, false) {
		t.Fatal("abort failed")
	}
	if _, ok := h.Get(4); ok {
		t.Fatal("aborted key visible")
	}
	if _, err := h.Insert(4, 44); err != nil {
		t.Fatalf("insert after abort: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{VariableKV: true}); err == nil {
		t.Error("VariableKV outside Allocator mode must fail")
	}
	if _, err := New(Config{Namespaces: true}); err == nil {
		t.Error("Namespaces outside Allocator mode must fail")
	}
}

func TestHandleLimit(t *testing.T) {
	tb := MustNew(Config{Bins: 16, MaxThreads: 2})
	if _, err := tb.Handle(); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Handle(); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Handle(); !errors.Is(err, ErrTooManyHandles) {
		t.Fatalf("err = %v, want ErrTooManyHandles", err)
	}
}

func TestStatsOccupancy(t *testing.T) {
	tb := MustNew(Config{Bins: 8, LinkRatio: 8})
	h := tb.MustHandle()
	for i := uint64(0); i < 12; i++ {
		if _, err := h.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	s := tb.Stats()
	if s.Occupied != 12 {
		t.Fatalf("Occupied = %d, want 12", s.Occupied)
	}
	if s.Capacity == 0 || s.Occupancy <= 0 {
		t.Fatalf("bad capacity/occupancy: %+v", s)
	}
	if s.Bins != 8 {
		t.Fatalf("Bins = %d, want 8", s.Bins)
	}
}

func TestModeString(t *testing.T) {
	if Inlined.String() != "inlined" || Allocator.String() != "allocator" ||
		HashSet.String() != "hashset" || Mode(9).String() != "unknown" {
		t.Error("mode names")
	}
}

func TestManyKeysAcrossBins(t *testing.T) {
	_, h := newInlined(t, Config{Bins: 1 << 10})
	const n = 3000
	for i := uint64(0); i < n; i++ {
		if _, err := h.Insert(i, i^0xdead); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := h.Get(i); !ok || v != i^0xdead {
			t.Fatalf("Get(%d) = (%d,%v)", i, v, ok)
		}
	}
	// Delete the odd keys, verify the even remain.
	for i := uint64(1); i < n; i += 2 {
		if _, ok := h.Delete(i); !ok {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := uint64(0); i < n; i++ {
		_, ok := h.Get(i)
		if want := i%2 == 0; ok != want {
			t.Fatalf("Get(%d) present=%v, want %v", i, ok, want)
		}
	}
}

func TestWyHashConfig(t *testing.T) {
	tb := MustNew(Config{Bins: 1 << 8, Hash: 1 /* WyHash */})
	h := tb.MustHandle()
	for i := uint64(0); i < 500; i++ {
		if _, err := h.Insert(i, i); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 500; i++ {
		if v, ok := h.Get(i); !ok || v != i {
			t.Fatalf("Get(%d) = (%d,%v)", i, v, ok)
		}
	}
}

func TestHandleCloseRecyclesIDs(t *testing.T) {
	tb := MustNew(Config{Bins: 1 << 8, Resizable: true, MaxThreads: 2})
	h1 := tb.MustHandle()
	h2 := tb.MustHandle()
	if _, err := tb.Handle(); !errors.Is(err, ErrTooManyHandles) {
		t.Fatalf("err = %v, want ErrTooManyHandles", err)
	}
	// Closing a handle frees its id for the next taker — a server can cycle
	// through far more connections than MaxThreads.
	h1.Close()
	for i := 0; i < 100; i++ {
		h := tb.MustHandle()
		if _, err := h.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatalf("insert via recycled handle: %v", err)
		}
		h.Close()
	}
	if v, ok := h2.Get(42); !ok || v != 42 {
		t.Fatalf("Get(42) = (%d,%v), want (42,true)", v, ok)
	}
	h1.Close() // double Close is a no-op
}

func TestHandleCloseConcurrent(t *testing.T) {
	tb := MustNew(Config{Bins: 1 << 10, Resizable: true, MaxThreads: 8})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := tb.MustHandle()
				k := uint64(g*1000 + i)
				h.Insert(k, k)
				if v, ok := h.Get(k); !ok || v != k {
					t.Errorf("Get(%d) = (%d,%v)", k, v, ok)
				}
				h.Close()
			}
		}(g)
	}
	wg.Wait()
}
