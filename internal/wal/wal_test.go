package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	core "repro/internal/core"
)

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, core.Config{Bins: 1 << 10, Resizable: true}, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// TestSyncOpsReopen: the synchronous surface is durable op by op.
func TestSyncOpsReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	if _, ins, err := s.Insert(1, 10); err != nil || !ins {
		t.Fatalf("Insert: ins=%v err=%v", ins, err)
	}
	if _, ins, _ := s.Insert(1, 11); ins {
		t.Fatal("duplicate Insert reported inserted")
	}
	if _, ok, err := s.Put(1, 20); err != nil || !ok {
		t.Fatalf("Put: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := s.Put(2, 99); ok {
		t.Fatal("Put on absent key reported ok")
	}
	if _, ins, err := s.Insert(2, 30); err != nil || !ins {
		t.Fatalf("Insert 2: ins=%v err=%v", ins, err)
	}
	if _, ok, err := s.Delete(2); err != nil || !ok {
		t.Fatalf("Delete: ok=%v err=%v", ok, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openTest(t, dir, Options{})
	defer r.Close()
	if v, ok, _ := r.Get(1); !ok || v != 20 {
		t.Fatalf("recovered key 1 = %d,%v; want 20,true", v, ok)
	}
	if _, ok, _ := r.Get(2); ok {
		t.Fatal("deleted key 2 survived recovery")
	}
	st := r.RecoverStats()
	if st.Records != 4 { // insert, put, insert, delete (misses unlogged)
		t.Fatalf("recovered %d records; want 4", st.Records)
	}
}

// TestPipeGroupCommit: pipelined completions all fire by Flush, and every
// acknowledged mutation survives reopen.
func TestPipeGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	const n = 10_000
	fired := 0
	p, err := s.Pipe(core.PipeOpts{Window: 64, OnComplete: func(c core.Completion) {
		if c.Err != nil {
			t.Fatalf("completion error: %v", c.Err)
		}
		fired++
	}})
	if err != nil {
		t.Fatalf("Pipe: %v", err)
	}
	for i := uint64(0); i < n; i++ {
		p.Insert(i, i*2)
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if fired != n {
		t.Fatalf("fired %d completions; want %d", fired, n)
	}
	// Interleave reads and overwrites; completions keep firing in order.
	order := make([]uint64, 0, 64)
	p2, _ := s.Pipe(core.PipeOpts{OnComplete: func(c core.Completion) {
		order = append(order, c.Key)
	}})
	for i := uint64(0); i < 64; i++ {
		if i%2 == 0 {
			p2.Get(i)
		} else {
			p2.Put(i, i+1000)
		}
	}
	if err := p2.Flush(); err != nil {
		t.Fatalf("Flush 2: %v", err)
	}
	for i, k := range order {
		if k != uint64(i) {
			t.Fatalf("completion %d for key %d; want enqueue order", i, k)
		}
	}
	if err := p2.Close(); err != nil {
		t.Fatalf("Close pipe: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openTest(t, dir, Options{})
	defer r.Close()
	for i := uint64(0); i < n; i++ {
		want := i * 2
		if i < 64 && i%2 == 1 {
			want = i + 1000
		}
		if v, ok, _ := r.Get(i); !ok || v != want {
			t.Fatalf("recovered key %d = %d,%v; want %d,true", i, v, ok, want)
		}
	}
}

// lastSegment returns the path of the newest segment in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	st, err := scanDir(dir)
	if err != nil || len(st.segs) == 0 {
		t.Fatalf("scanDir: segs=%d err=%v", len(st.segs), err)
	}
	return filepath.Join(dir, segName(st.segs[len(st.segs)-1]))
}

// TestTornTail: a segment truncated mid-record recovers cleanly to the
// last complete commit, and the next recovery is torn-free.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	const n = 100
	for i := uint64(0); i < n; i++ {
		if _, ins, err := s.Insert(i, i+1); err != nil || !ins {
			t.Fatalf("Insert %d: ins=%v err=%v", i, ins, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the last record: chop 3 bytes off the newest segment.
	seg := lastSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir, Options{})
	st := r.RecoverStats()
	if st.TornBytes == 0 {
		t.Fatal("recovery reported no torn tail")
	}
	if st.Records != n-1 {
		t.Fatalf("recovered %d records; want %d", st.Records, n-1)
	}
	for i := uint64(0); i < n-1; i++ {
		if v, ok, _ := r.Get(i); !ok || v != i+1 {
			t.Fatalf("recovered key %d = %d,%v; want %d,true", i, v, ok, i+1)
		}
	}
	if _, ok, _ := r.Get(n - 1); ok {
		t.Fatal("torn record's key survived")
	}
	// The torn key is re-insertable and the directory is clean now.
	if _, ins, err := r.Insert(n-1, n); err != nil || !ins {
		t.Fatalf("re-Insert: ins=%v err=%v", ins, err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r2 := openTest(t, dir, Options{})
	defer r2.Close()
	if st := r2.RecoverStats(); st.TornBytes != 0 {
		t.Fatalf("second recovery still torn: %+v", st)
	}
	if v, ok, _ := r2.Get(n - 1); !ok || v != n {
		t.Fatalf("re-inserted key = %d,%v; want %d,true", v, ok, uint64(n))
	}
}

// TestCorruptMiddleFails: corruption anywhere but the last segment is a
// hard recovery error, not a silent truncation.
func TestCorruptMiddleFails(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 1 << 10, SnapshotBytes: -1})
	for i := uint64(0); i < 500; i++ {
		s.Insert(i, i)
	}
	s.Close()
	st, _ := scanDir(dir)
	if len(st.segs) < 2 {
		t.Fatalf("want multiple segments, got %d", len(st.segs))
	}
	first := filepath.Join(dir, segName(st.segs[0]))
	b, _ := os.ReadFile(first)
	b[len(b)/2] ^= 0xff
	os.WriteFile(first, b, 0o644)
	if _, err := Open(dir, core.Config{Bins: 1 << 10, Resizable: true}, Options{}); err == nil {
		t.Fatal("recovery accepted mid-log corruption")
	} else if !strings.Contains(err.Error(), "wal") {
		t.Fatalf("unexpected error shape: %v", err)
	}
}

// TestSnapshotCompaction: a snapshot supersedes old segments (they are
// deleted) and recovery from snapshot + tail segments is exact.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{SegmentBytes: 1 << 12, SnapshotBytes: -1})
	const n = 2000
	for i := uint64(0); i < n; i++ {
		s.Insert(i, i+7)
	}
	for i := uint64(0); i < n; i += 3 {
		s.Delete(i)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	st, _ := scanDir(dir)
	if len(st.snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(st.snaps))
	}
	for _, seg := range st.segs {
		if seg < st.snaps[0] {
			t.Fatalf("segment %d below boundary %d survived compaction", seg, st.snaps[0])
		}
	}
	// Post-snapshot writes land in the tail segments.
	for i := uint64(0); i < 100; i++ {
		s.Put(i*3+1, i)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openTest(t, dir, Options{})
	defer r.Close()
	if r.RecoverStats().SnapshotSeg == 0 {
		t.Fatal("recovery did not use the snapshot")
	}
	for i := uint64(0); i < n; i++ {
		v, ok, _ := r.Get(i)
		switch {
		case i%3 == 0:
			if ok {
				t.Fatalf("deleted key %d survived", i)
			}
		case i%3 == 1 && (i-1)/3 < 100:
			if want := (i - 1) / 3; !ok || v != want {
				t.Fatalf("key %d = %d,%v; want %d,true", i, v, ok, want)
			}
		default:
			if !ok || v != i+7 {
				t.Fatalf("key %d = %d,%v; want %d,true", i, v, ok, i+7)
			}
		}
	}
}

// TestKVStoreReopen: Allocator-mode tables log and recover their KV pairs
// (including a snapshot round trip through RangeKV).
func TestKVStoreReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{
		Bins: 1 << 10, Resizable: true, Mode: core.Allocator,
		VariableKV: true, Namespaces: true, EpochGC: true,
	}
	s, err := Open(dir, cfg, Options{SnapshotBytes: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	h := s.Table().MustHandle()
	log := s.Log()
	var lastSeq uint64
	putKV := func(ns uint16, key, val string) {
		if err := h.InsertKV(ns, []byte(key), []byte(val)); err != nil {
			t.Fatalf("InsertKV %q: %v", key, err)
		}
		seq, err := log.LogKV(h, ns, []byte(key), s.Table().HashOfKV(ns, []byte(key)), false)
		if err != nil {
			t.Fatalf("LogKV: %v", err)
		}
		lastSeq = seq
	}
	putKV(0, "alpha", "one")
	putKV(0, "a-key-way-longer-than-eight-bytes", "big-key value")
	putKV(5, "alpha", "ns five")
	putKV(0, "beta", "two")
	h.DeleteKV(0, []byte("beta"))
	if seq, err := log.LogKV(h, 0, []byte("beta"), s.Table().HashOfKV(0, []byte("beta")), false); err != nil {
		t.Fatal(err)
	} else {
		lastSeq = seq
	}
	if err := log.SyncWait(lastSeq); err != nil {
		t.Fatalf("SyncWait: %v", err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	h.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := Open(dir, cfg, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	rh := r.Table().MustHandle()
	defer rh.Close()
	check := func(ns uint16, key, want string) {
		v, ok := rh.GetKV(ns, []byte(key))
		if !ok || string(v) != want {
			t.Fatalf("recovered %d/%q = %q,%v; want %q", ns, key, v, ok, want)
		}
	}
	check(0, "alpha", "one")
	check(0, "a-key-way-longer-than-eight-bytes", "big-key value")
	check(5, "alpha", "ns five")
	if _, ok := rh.GetKV(0, []byte("beta")); ok {
		t.Fatal("deleted KV pair survived")
	}
}

// TestCrashRecoveryProperty is the acknowledged-writes invariant: after a
// crash (unflushed log buffer dropped), every completion that fired is
// recovered, and every recovered value was actually issued — acked ≤
// recovered ≤ issued per key, with values encoding monotone rounds.
func TestCrashRecoveryProperty(t *testing.T) {
	const keys = 64
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		dir := t.TempDir()
		s := openTest(t, dir, Options{SegmentBytes: 1 << 14, SnapshotBytes: -1})
		acked := make([]uint64, keys)  // highest completed round per key
		issued := make([]uint64, keys) // highest enqueued round per key
		p, err := s.Pipe(core.PipeOpts{Window: 32, OnComplete: func(c core.Completion) {
			if c.Err != nil || !c.OK {
				return
			}
			k := c.Key % keys
			if v := ackRound(c); v > acked[k] {
				acked[k] = v
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		nops := 200 + rng.Intn(4000)
		round := make([]uint64, keys)
		for i := 0; i < nops; i++ {
			k := uint64(rng.Intn(keys))
			round[k]++
			issued[k] = round[k]
			if round[k] == 1 {
				p.Insert(k, 1)
			} else {
				p.Put(k, round[k])
			}
			if rng.Intn(64) == 0 {
				if err := p.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Crash with the tail of the run still in flight: unflushed frames
		// vanish, synced ones survive.
		s.crash()

		r := openTest(t, dir, Options{})
		for k := uint64(0); k < keys; k++ {
			v, ok, _ := r.Get(k)
			got := uint64(0)
			if ok {
				got = v
			}
			if got < acked[k] {
				t.Fatalf("trial %d key %d: recovered round %d < acked %d (acknowledged write lost)", trial, k, got, acked[k])
			}
			if got > issued[k] {
				t.Fatalf("trial %d key %d: recovered round %d > issued %d (phantom write)", trial, k, got, issued[k])
			}
		}
		r.Close()
	}
}

// ackRound decodes the round a completion acknowledges: inserts are round
// 1, puts carry the round in the value... but Completion.Value holds the
// PREVIOUS value for puts, so the acknowledged round is previous+1.
func ackRound(c core.Completion) uint64 {
	switch c.Kind {
	case core.OpInsert:
		return 1
	case core.OpPut:
		return c.Value + 1
	}
	return 0
}

// TestOpenFreshDirIdempotent: opening an empty directory twice in a row
// works and starts clean.
func TestOpenFreshDirIdempotent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sub", "db")
	s := openTest(t, dir, Options{})
	if st := s.RecoverStats(); st.Records != 0 || st.SnapshotSeg != 0 {
		t.Fatalf("fresh dir recovered state: %+v", st)
	}
	s.Close()
	s2 := openTest(t, dir, Options{})
	s2.Close()
}

// TestDecodeRecordRoundTrip pins the frame encodings the fuzz target
// seeds from.
func TestDecodeRecordRoundTrip(t *testing.T) {
	frames := [][]byte{
		appendFixed(nil, recPut, 1, 2),
		appendFixed(nil, recInsert, ^uint64(0), 0),
		appendFixed(nil, recInsertShadow, 7, 8),
		appendDelete(nil, 42),
		appendCommitShadow(nil, 9, true),
		appendCommitShadow(nil, 9, false),
		appendInsertKV(nil, 3, []byte("key"), []byte("value")),
		appendInsertKV(nil, 0, []byte("a-much-longer-key-than-8B"), nil),
		appendDeleteKV(nil, 0xfff, []byte("k")),
	}
	for i, f := range frames {
		r, n, err := DecodeRecord(f)
		if err != nil || n != len(f) {
			t.Fatalf("frame %d: n=%d err=%v", i, n, err)
		}
		if r.Kind == 0 || r.Kind >= recKindEnd {
			t.Fatalf("frame %d: bad kind %d", i, r.Kind)
		}
	}
	r, _, err := DecodeRecord(frames[6])
	if err != nil || string(r.K) != "key" || string(r.V) != "value" || r.NS != 3 {
		t.Fatalf("insertKV round trip: %+v err=%v", r, err)
	}
	// Concatenated frames decode in sequence.
	all := append(append([]byte(nil), frames[0]...), frames[3]...)
	r0, n0, _ := DecodeRecord(all)
	r1, _, err := DecodeRecord(all[n0:])
	if err != nil || r0.Kind != recPut || r1.Kind != recDelete {
		t.Fatalf("sequential decode: %v/%v err=%v", r0.Kind, r1.Kind, err)
	}
}
