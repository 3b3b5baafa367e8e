package wal

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	core "repro/internal/core"
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
