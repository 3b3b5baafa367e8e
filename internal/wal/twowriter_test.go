package wal

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	core "repro/internal/core"
	"repro/internal/expiry"
)

// twoWriterKeys is the two-writer tests' round budget: one round per key.
const twoWriterKeys = 3000

// twoWriterOps returns writer w's round on key k: an insert, puts, and a
// delete followed by a re-insert halfway, each with a value unique to
// (k, w, position), so the key ends present or absent depending on how
// the two writers' ops interleave.
func twoWriterOps(k uint64, w int) []core.Op {
	ops := make([]core.Op, 16)
	for i := range ops {
		kind := core.OpPut
		switch i {
		case 0, 9:
			kind = core.OpInsert
		case 8:
			kind = core.OpDelete
		}
		ops[i] = core.Op{Kind: kind, Key: k, Value: k<<8 | uint64(w)<<4 | uint64(i)}
	}
	return ops
}

// served is a key's state as the table answered it.
type served struct {
	val uint64
	ok  bool
}

// runTwoWriters runs one round per key with two writers on one durable
// table — the store's own Pipe, and a foreign handle that logs its
// completions through Log.LogFixed as a server connection does — each
// yielding between an op's apply and its append. After each round it
// records what the table serves for the key. With snapshots set, a third
// goroutine snapshots the store back to back through the first two thirds
// of the rounds, so the last snapshot's scan races the writers and the
// last third recovers from records alone. Then it reopens the directory
// and returns how many keys recovered something other than what was
// served.
func runTwoWriters(t *testing.T, snapshots bool) int {
	testRecordGap = runtime.Gosched
	defer func() { testRecordGap = nil }()
	dir := t.TempDir()
	s := openTest(t, dir, Options{SnapshotBytes: -1})
	pa, err := s.Pipe(core.PipeOpts{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	hb := s.Table().MustHandle()
	pb := hb.Pipeline(core.PipelineOpts{Window: 4, OnComplete: func(op *core.Op) {
		if _, err := s.Log().LogFixed(hb, op); err != nil {
			t.Error(err)
		}
	}})
	writers := []func(core.Op) error{
		func(op core.Op) error {
			switch op.Kind {
			case core.OpInsert:
				return pa.Insert(op.Key, op.Value)
			case core.OpPut:
				return pa.Put(op.Key, op.Value)
			}
			return pa.Delete(op.Key)
		},
		func(op core.Op) error { pb.Enqueue(op); return nil },
	}
	flush := []func() error{pa.Flush, func() error { pb.Flush(); return nil }}

	var start [2]chan uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := range writers {
		start[w] = make(chan uint64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range start[w] {
				for _, op := range twoWriterOps(k, w) {
					if err := writers[w](op); err != nil {
						t.Error(err)
					}
				}
				if err := flush[w](); err != nil {
					t.Error(err)
				}
				done <- struct{}{}
			}
		}()
	}
	var snaps atomic.Int64
	stopSnap := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for snapshots {
			select {
			case <-stopSnap:
				return
			default:
			}
			if err := s.Snapshot(); err != nil {
				t.Error(err)
				return
			}
			snaps.Add(1)
		}
	}()

	hr := s.Table().MustHandle()
	want := make([]served, twoWriterKeys)
	for k := range want {
		if k == 2*len(want)/3 {
			close(stopSnap)
			<-snapDone
		}
		start[0] <- uint64(k)
		start[1] <- uint64(k)
		<-done
		<-done
		want[k].val, want[k].ok = hr.Get(uint64(k))
	}
	close(start[0])
	close(start[1])
	wg.Wait()
	if snapshots && snaps.Load() == 0 {
		t.Fatal("no snapshot ran during the rounds")
	}
	if err := pa.Close(); err != nil {
		t.Fatal(err)
	}
	pb.Close()
	hb.Close()
	hr.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, Options{})
	defer r.Close()
	diverged := 0
	for k, w := range want {
		v, ok, _ := r.Get(uint64(k))
		if ok != w.ok || ok && v != w.val {
			if diverged < 3 {
				t.Logf("key %d: served %#x,%v; recovered %#x,%v", k, w.val, w.ok, v, ok)
			}
			diverged++
		}
	}
	return diverged
}

// TestTwoWritersRecoverServed: two handles writing one key, each yielding
// between apply and append so the other's apply and append can overtake,
// recover exactly what the table served after each round.
func TestTwoWritersRecoverServed(t *testing.T) {
	if n := runTwoWriters(t, false); n != 0 {
		t.Fatalf("%d of %d keys recovered a value other than the one served", n, twoWriterKeys)
	}
}

// TestTwoWritersSnapshotMidRace is TestTwoWritersRecoverServed with
// snapshots taken while both writers run, so recovery starts from a scan
// that raced the writers and replays only what follows its boundary.
func TestTwoWritersSnapshotMidRace(t *testing.T) {
	if n := runTwoWriters(t, true); n != 0 {
		t.Fatalf("%d of %d keys recovered a value other than the one served", n, twoWriterKeys)
	}
}

// kvTwoWriterKeys is the KV two-writer test's round budget: one round
// per key.
const kvTwoWriterKeys = 3000

// kvTwoWriterStep runs writer w's i-th op of its round on key: SETs with
// and without a TTL, EXPIREs, PERSISTs, INCRs and a DEL, each with a
// value or deadline unique to (key, w, i), so the pair the key ends with
// depends on how the two writers' ops interleave.
func kvTwoWriterStep(kv expiry.KV, key []byte, hash uint64, k, w, i int) error {
	tag := int64(k*1000 + w*100 + i)
	val := []byte(strconv.FormatInt(tag, 10))
	var err error
	switch i % 8 {
	case 0:
		_, _, err = kv.Set(0, key, val, hash, 0, 0)
	case 1, 5:
		_, _, err = kv.Set(0, key, val, hash, 1_000_000+tag, 0)
	case 2:
		_, err = kv.Update(0, key, hash, func(cur []byte, ok bool) ([]byte, error) {
			n, _ := strconv.ParseInt(string(cur), 10, 64)
			return strconv.AppendInt(nil, n+1, 10), nil
		})
	case 3:
		_, _, err = kv.ExpireAt(0, key, hash, 2_000_000+tag)
	case 4:
		_, _, err = kv.Persist(0, key, hash)
	case 6:
		_, _, err = kv.Delete(0, key, hash)
	case 7:
		_, _, err = kv.Set(0, key, val, hash, 0, expiry.KeepTTL)
	}
	return err
}

// servedKV is a pair's state as the table answered it.
type servedKV struct {
	val string
	at  uint64
	ok  bool
}

// runKVTwoWriters is runTwoWriters for the TTL'd KV surface: per key, the
// store's own expiry.KV and a foreign handle bound to the store's
// Expiry() and Log(), as a RESP connection is, each run a round of
// kvTwoWriterStep ops, yielding a few times between every op's apply and
// its append — a KV op's apply is longer than a fixed op's.
// After each round it records the value and deadline the table serves
// for the key; then it reopens the directory and returns how many keys
// recovered another value or deadline.
func runKVTwoWriters(t *testing.T) int {
	testRecordGap = func() {
		for i := 0; i < 4; i++ {
			runtime.Gosched()
		}
	}
	defer func() { testRecordGap = nil }()
	var now atomic.Int64
	now.Store(1000) // before every deadline: nothing expires
	dir := t.TempDir()
	s := openKV(t, dir, &now)
	hb := s.Table().MustHandle()
	kvs := []expiry.KV{s.kv, expiry.Bind(hb, s.Expiry(), s.Log())}
	key := func(k int) []byte { return []byte("two-writer-key-" + strconv.Itoa(k)) }

	hr := s.Table().MustHandle()
	want := make([]servedKV, kvTwoWriterKeys)
	for k := range want {
		name := key(k)
		hash := s.Table().HashOfKV(0, name)
		var wg sync.WaitGroup
		for w, kv := range kvs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 16; i++ {
					if err := kvTwoWriterStep(kv, name, hash, k, w, i); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		v, at, ref := hr.GetKVMeta(0, name, hash)
		want[k] = servedKV{string(v), at, !ref.IsNil()}
	}
	hb.Close()
	hr.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openKV(t, dir, &now)
	defer r.Close()
	rh := r.Table().MustHandle()
	defer rh.Close()
	diverged := 0
	for k, w := range want {
		name := key(k)
		v, at, ref := rh.GetKVMeta(0, name, r.Table().HashOfKV(0, name))
		if got := (servedKV{string(v), at, !ref.IsNil()}); got != w {
			if diverged < 3 {
				t.Logf("key %d: served %+v; recovered %+v", k, w, got)
			}
			diverged++
		}
	}
	return diverged
}

// TestKVTwoWritersRecoverServed: two handles running SET, SET EX, EXPIRE,
// PERSIST, INCR and DEL on one key, each yielding between apply and
// append so the other's apply and append can overtake, recover exactly
// the value and deadline the table served after each round.
func TestKVTwoWritersRecoverServed(t *testing.T) {
	if n := runKVTwoWriters(t); n != 0 {
		t.Fatalf("%d of %d keys recovered a pair other than the one served", n, kvTwoWriterKeys)
	}
}

// TestDurablePipeZeroAllocs: a burst through the durable Pipe — 256 puts,
// each logged, then 256 gets — allocates nothing once warm: records are
// encoded in place in the log buffer, and the staging queue is reused.
func TestDurablePipeZeroAllocs(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{SnapshotBytes: -1})
	defer s.Close()
	const n = 256
	for k := uint64(0); k < n; k++ {
		if _, _, err := s.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	p, err := s.Pipe(core.PipeOpts{Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	v := uint64(0)
	allocs := testing.AllocsPerRun(20, func() {
		v++
		for k := uint64(0); k < n; k++ {
			p.Put(k, v)
		}
		for k := uint64(0); k < n; k++ {
			p.Get(k)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("durable pipe burst of %d puts + %d gets: %v allocs; want 0", n, n, allocs)
	}
}
